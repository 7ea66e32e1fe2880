#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "arena/arena.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "timed_embedder.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"

namespace vbbench {

using namespace vb;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr Workload kWorkloads[] = {
    {"rebalance_16k", WorkloadKind::kRebalance, 16000},
    {"arena_vbundle_3k", WorkloadKind::kArenaVBundle, 3000},
    {"arena_competitive_8k", WorkloadKind::kArenaCompetitive, 8000},
};

// rebalance_16k: perf_core's shuffle epoch.  Updates from t=0, the first
// rebalancing round at t=1500, migrations settled by t=1800; the window
// split at t=1499 separates update ticks from the rebalancing round.
constexpr int kVmsPerHost = 10;
constexpr double kUpdateEnd = 1499.0;
constexpr double kRebalancePhase = 1500.0;
constexpr double kRebalanceEnd = 1800.0;
constexpr const char* kCustomer = "bench";

// After the timed window the benchmark stops rebalancing and lets in-flight
// migrations finish for this much simulated time before it checks them.
constexpr double kSettleS = 600.0;

// The timed window advances in slices of about this much simulated time, and
// each slice's host time is reported.  Every rep of a workload cuts the same
// slices, so a transient slowdown of the machine can be told apart from the
// cost of the work (run.py takes the fastest rep of each slice).
constexpr double kSliceS = 25.0;

// Advances `to_time(t)` from `from` to `to` in slices of about kSliceS,
// appending each slice's host seconds to `out`.
template <class F>
void run_sliced(double from, double to, F&& to_time, std::vector<double>& out) {
  int n = std::max(1, static_cast<int>(std::ceil((to - from) / kSliceS)));
  for (int k = 1; k <= n; ++k) {
    double until = k == n ? to : from + (to - from) * k / n;
    auto t0 = Clock::now();
    to_time(until);
    out.push_back(since(t0));
  }
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_of(std::uint64_t events, std::uint64_t migrations,
                        std::uint64_t fingerprint, double util_sd) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof util_sd);
  std::memcpy(&bits, &util_sd, sizeof bits);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : {events, migrations, fingerprint, bits}) h = fnv(h, v);
  return h;
}

// 25 hosts per rack, 10 racks per pod; `servers` must be a multiple of 250.
core::CloudConfig cloud_config(int servers, std::uint64_t seed) {
  core::CloudConfig cfg;
  cfg.topology.hosts_per_rack = 25;
  cfg.topology.racks_per_pod = 10;
  cfg.topology.num_pods = servers / 250;
  cfg.seed = seed;
  return cfg;
}

// arena_compare's generator settings: 0.002 arrivals/server/s, 1200 s mean
// lifetime, N in 2..12, 1.4 requests per server, and a horizon of the
// arrival span plus one lifetime.
arena::ArenaConfig arena_config(const Workload& w, std::uint64_t seed) {
  bool vbundle = w.kind == WorkloadKind::kArenaVBundle;
  arena::ArenaConfig cfg;
  cfg.embedder = vbundle ? arena::EmbedderKind::kVBundle
                         : arena::EmbedderKind::kCompetitive;
  cfg.threads = 1;
  cfg.enable_rebalancing = vbundle;
  cfg.demand_apply_interval_s = 60.0;
  cfg.generator.seed = seed;
  cfg.generator.base_arrival_per_s = w.servers * 0.002;
  cfg.generator.mean_lifetime_s = 1200.0;
  cfg.generator.n_min = 2;
  cfg.generator.n_max = 12;
  cfg.max_requests = static_cast<std::uint64_t>(w.servers) * 7 / 5;
  cfg.horizon_s = static_cast<double>(cfg.max_requests) /
                      cfg.generator.base_arrival_per_s +
                  1200.0;
  cfg.sample_every_s = 60.0;
  return cfg;
}

// Counters of every layer at one instant.
struct Snapshot {
  std::uint64_t events = 0;
  obs::MetricsRegistry reg;

  std::uint64_t counter(const char* name) const {
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? c->value() : 0;
  }
};

Snapshot snapshot(core::VBundleCloud& cloud, SpanLog* spans) {
  Snapshot s;
  s.events = cloud.simulator().events_executed();
  {
    SpanScope span(spans, "pastry.export_metrics");
    cloud.pastry().export_metrics(s.reg);
  }
  {
    SpanScope span(spans, "vbundle.collect_metrics");
    cloud.collect_metrics(s.reg);
  }
  return s;
}

double delta(const Snapshot& a, const Snapshot& b, const char* name) {
  return static_cast<double>(b.counter(name) - a.counter(name));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct FleetScan {
  std::uint64_t records = 0;
  std::uint64_t live = 0;
  int over_capacity_hosts = 0;
};

FleetScan scan_fleet(const host::Fleet& fleet, SpanLog* spans) {
  SpanScope span(spans, "fleet.scan");
  FleetScan f;
  for (const host::Vm& vm : fleet.all_vms()) {
    ++f.records;
    if (!vm.destroyed) ++f.live;
  }
  for (int h = 0; h < fleet.num_hosts(); ++h) {
    const host::Host& host = fleet.host(h);
    auto over = [](double used, double cap) { return used > cap * (1 + 1e-9); };
    if (over(host.reserved_mbps(), host.capacity_mbps()) ||
        over(host.reserved_cpu(), host.cpu_capacity()) ||
        over(host.reserved_mem_mb(), host.mem_capacity_mb())) {
      ++f.over_capacity_hosts;
    }
  }
  return f;
}

void check(RepResult& r, bool ok, const std::string& what) {
  if (!ok) r.errors.push_back(what);
}

void check_fleet(RepResult& r, const FleetScan& f) {
  check(r, f.over_capacity_hosts == 0,
        std::to_string(f.over_capacity_hosts) +
            " hosts reserved above capacity");
}

void check_settled(RepResult& r, core::VBundleCloud& cloud) {
  check(r, cloud.migrations().started() == cloud.migrations().completed(),
        "migrations started " + std::to_string(cloud.migrations().started()) +
            " != completed " + std::to_string(cloud.migrations().completed()) +
            " after settling");
}

void check_images(RepResult& r, const std::vector<std::uint8_t>& a,
                  const std::vector<std::uint8_t>& b) {
  check(r, a == b,
        "checkpoint round trip: re-saved image differs (" +
            std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
            " bytes)");
}

// Metrics every workload reports from its snapshots around the timed
// window [s0, s_end] and its spans.
void fill_common_layers(RepResult& r, const Snapshot& s0, const Snapshot& s_end,
                        double window_s, std::size_t pending_end,
                        const FleetScan& f, const SpanLog& spans) {
  auto& m = r.layer;
  double events = static_cast<double>(s_end.events - s0.events);
  m["sim.events"] = events;
  m["sim.ns_per_event"] = ratio(window_s * 1e9, events);
  m["sim.pending_end"] = static_cast<double>(pending_end);

  double msgs = delta(s0, s_end, "pastry.msgs.total");
  m["pastry.msgs.total"] = msgs;
  m["pastry.bytes.total"] = delta(s0, s_end, "pastry.bytes.total");
  m["pastry.msgs.retransmit"] = delta(s0, s_end, "pastry.msgs.retransmit");
  m["pastry.ns_per_msg"] = ratio(window_s * 1e9, msgs);
  const obs::Distribution* per_node =
      s_end.reg.find_distribution("pastry.msgs.per_node");
  m["pastry.msgs.per_node_max"] =
      per_node != nullptr && per_node->acc().count() > 0 ? per_node->acc().max()
                                                         : 0.0;

  m["setup.cloud_s"] = spans.total_s("setup.cloud");

  m["fleet.vm_records"] = static_cast<double>(f.records);
  m["fleet.live_vms"] = static_cast<double>(f.live);
  m["fleet.tombstone_share"] =
      ratio(static_cast<double>(f.records - f.live), static_cast<double>(f.records));
}

// Shuffler and migration counters over [a, b].
void fill_shuffle_layers(RepResult& r, const Snapshot& a, const Snapshot& b) {
  auto& m = r.layer;
  double accepted = delta(a, b, "vbundle.queries_accepted");
  double declined = delta(a, b, "vbundle.queries_declined");
  m["vbundle.queries_sent"] = delta(a, b, "vbundle.queries_sent");
  m["vbundle.queries_declined"] = declined;
  m["vbundle.decline_ratio"] = ratio(declined, accepted + declined);
  m["migration.completed"] = delta(a, b, "migration.completed");
  m["pastry.msgs.vbundle"] = delta(a, b, "pastry.msgs.vbundle");
  m["pastry.msgs.scribe"] = delta(a, b, "pastry.msgs.scribe");
}

void fill_ckpt_layers(RepResult& r, const SpanLog& spans) {
  r.layer["ckpt.save_s"] = spans.total_s("ckpt.save");
  r.layer["ckpt.restore_s"] = spans.total_s("ckpt.restore");
  r.layer["ckpt.bytes"] = static_cast<double>(r.ckpt_bytes);
}

RepResult run_rebalance(const Workload& w, const RepConfig& rc) {
  RepResult r;
  SpanLog* spans = rc.spans;
  core::CloudConfig cfg = cloud_config(w.servers, rc.seed);

  auto t0 = Clock::now();
  std::unique_ptr<core::VBundleCloud> cloud;
  {
    SpanScope span(spans, "setup.cloud");
    cloud = std::make_unique<core::VBundleCloud>(cfg);
  }
  {
    SpanScope span(spans, "setup.pack");
    host::CustomerId c = cloud->add_customer(kCustomer);
    // 10 VMs per host at limit 100 Mbps let a 1 Gbps host reach full
    // utilization, so the skew below produces shedders.
    int vms = w.servers * kVmsPerHost;
    int unplaced = 0;
    for (int i = 0; i < vms; ++i) {
      host::VmId v = cloud->fleet().create_vm(c, host::VmSpec{20.0, 100.0});
      if (!cloud->fleet().place(v, i % w.servers)) ++unplaced;
    }
    check(r, unplaced == 0,
          "initial packing: " + std::to_string(unplaced) + " VMs did not fit");
    Rng rng(rc.seed);
    load::skew_host_utilizations(cloud->fleet(), 0.2, 0.95, rng);
  }
  r.setup_s = since(t0);

  Snapshot s0 = snapshot(*cloud, spans);
  cloud->start_rebalancing(0.0, kRebalancePhase);
  auto advance = [&](double t) { cloud->run_until(t); };
  {
    SpanScope span(spans, "update.window");
    run_sliced(0.0, kUpdateEnd, advance, r.slice_s);
  }
  Snapshot s1 = snapshot(*cloud, spans);
  {
    SpanScope span(spans, "rebalance.window");
    run_sliced(kUpdateEnd, kRebalanceEnd, advance, r.slice_s);
  }
  std::size_t pending_end = cloud->simulator().pending_events();
  Snapshot s2 = snapshot(*cloud, spans);

  r.util_sd = cloud->utilization_stddev();
  r.digest = digest_of(s2.events, cloud->migrations().completed(), 0, r.util_sd);
  r.operations = s2.counter("vbundle.queries_sent") - s0.counter("vbundle.queries_sent");
  r.unserved =
      s2.counter("vbundle.anycast_failures") - s0.counter("vbundle.anycast_failures") +
      s2.counter("vbundle.query_timeouts") - s0.counter("vbundle.query_timeouts");
  check(r, r.operations > 0, "no shed queries: the skew produced no shedders");
  check(r, cloud->migrations().completed() > 0, "no migrations completed");

  FleetScan fleet = scan_fleet(cloud->fleet(), spans);
  check_fleet(r, fleet);
  check(r, fleet.live == static_cast<std::uint64_t>(w.servers) * kVmsPerHost,
        "live VM count changed during rebalancing");
  cloud->stop_rebalancing();
  {
    SpanScope span(spans, "sim.settle");
    cloud->run_until(kRebalanceEnd + kSettleS);
  }
  check_settled(r, *cloud);

  if (spans != nullptr) {
    double update_span = spans->total_s("update.window");
    double rebalance_span = spans->total_s("rebalance.window");
    fill_common_layers(r, s0, s2, update_span + rebalance_span, pending_end,
                       fleet, *spans);
    auto& m = r.layer;
    m["setup.pack_s"] = spans->total_s("setup.pack");
    double update_events = static_cast<double>(s1.events - s0.events);
    m["update.window_s"] = update_span;
    m["update.events"] = update_events;
    m["update.ns_per_event"] = ratio(update_span * 1e9, update_events);
    m["pastry.msgs.aggregation"] = delta(s0, s1, "pastry.msgs.aggregation");
    m["pastry.msgs.overlay"] = delta(s0, s1, "pastry.msgs.overlay");
    double rebalance_events = static_cast<double>(s2.events - s1.events);
    m["rebalance.window_s"] = rebalance_span;
    m["rebalance.events"] = rebalance_events;
    m["rebalance.ns_per_event"] = ratio(rebalance_span * 1e9, rebalance_events);
    fill_shuffle_layers(r, s1, s2);
  }

  r.peak_rss_mib = peak_rss_mib();
  if (!rc.instrumented) return r;
  std::vector<std::uint8_t> image;
  {
    SpanScope span(spans, "ckpt.save");
    image = cloud->save_checkpoint();
  }
  r.ckpt_bytes = image.size();
  cloud.reset();  // the image holds everything the restore needs
  // Re-run the deterministic setup without packing: the fleet comes back
  // from the image.
  auto fresh = std::make_unique<core::VBundleCloud>(cfg);
  fresh->add_customer(kCustomer);
  fresh->start_rebalancing(0.0, kRebalancePhase);
  {
    SpanScope span(spans, "ckpt.restore");
    fresh->restore_checkpoint(image);
  }
  check_images(r, image, fresh->save_checkpoint());
  if (spans != nullptr) fill_ckpt_layers(r, *spans);
  return r;
}

std::int64_t percentile_ns(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

void fill_embed_layers(RepResult& r, const TimedEmbedder& timed) {
  std::vector<std::int64_t> all, placed, gate;
  std::uint64_t capacity_rejected = 0;
  for (const EmbedSample& s : timed.samples()) {
    all.push_back(s.ns);
    if (s.cls == EmbedClass::kPlaced) placed.push_back(s.ns);
    if (s.cls == EmbedClass::kGateRejected) gate.push_back(s.ns);
    if (s.cls == EmbedClass::kCapacityRejected) ++capacity_rejected;
  }
  auto& m = r.layer;
  m["arena.embed_calls"] = static_cast<double>(all.size());
  m["arena.embed_placed"] = static_cast<double>(placed.size());
  m["arena.embed_capacity_rejected"] = static_cast<double>(capacity_rejected);
  m["arena.embed_gate_rejected"] = static_cast<double>(gate.size());
  m["arena.embed_us_p50"] = static_cast<double>(percentile_ns(all, 0.50)) * 1e-3;
  m["arena.embed_us_p99"] = static_cast<double>(percentile_ns(all, 0.99)) * 1e-3;
  m["arena.embed_placed_us_p50"] =
      static_cast<double>(percentile_ns(placed, 0.50)) * 1e-3;
  m["arena.embed_gate_reject_us_p50"] =
      static_cast<double>(percentile_ns(gate, 0.50)) * 1e-3;
  m["arena.embed_sim_events"] = static_cast<double>(timed.embed_sim_events());
}

// The arena and the decorator point at each other's embedder and both at
// the cloud; neither touches the other on destruction, and the cloud goes
// last (members are destroyed in reverse order).
struct ArenaRig {
  std::unique_ptr<core::VBundleCloud> cloud;
  std::unique_ptr<arena::Arena> arena;
  std::unique_ptr<TimedEmbedder> timed;  // null: undecorated
};

ArenaRig build_arena(const Workload& w, std::uint64_t seed, bool decorate,
                     SpanLog* spans) {
  ArenaRig rig;
  {
    SpanScope span(spans, "setup.cloud");
    rig.cloud = std::make_unique<core::VBundleCloud>(cloud_config(w.servers, seed));
  }
  SpanScope span(spans, "setup.arena");
  rig.arena = std::make_unique<arena::Arena>(rig.cloud.get(), arena_config(w, seed));
  if (decorate) {
    rig.timed = std::make_unique<TimedEmbedder>(&rig.arena->embedder(),
                                                &rig.cloud->simulator(), spans);
    rig.arena->admission().set_embedder(rig.timed.get());
  }
  return rig;
}

RepResult run_arena(const Workload& w, const RepConfig& rc) {
  RepResult r;
  SpanLog* spans = rc.spans;

  auto t0 = Clock::now();
  ArenaRig rig = build_arena(w, rc.seed, rc.instrumented, spans);
  r.setup_s = since(t0);
  core::VBundleCloud& cloud = *rig.cloud;

  Snapshot s0 = snapshot(cloud, spans);
  {
    // The arena's run_until is resumable; cut at the horizon it equals run().
    SpanScope span(spans, "arena.run");
    run_sliced(0.0, rig.arena->config().horizon_s,
               [&](double t) { rig.arena->run_until(t); }, r.slice_s);
  }
  std::size_t pending_end = cloud.simulator().pending_events();
  Snapshot s1 = snapshot(cloud, spans);

  const arena::AdmissionController& adm = rig.arena->admission();
  const arena::AdmissionStats& st = adm.stats();
  r.util_sd = cloud.utilization_stddev();
  r.digest = digest_of(s1.events, cloud.migrations().completed(),
                       st.decision_fingerprint, r.util_sd);
  r.operations = st.offered;
  r.unserved = st.offered - st.accepted;
  check(r, st.offered == rig.arena->config().max_requests,
        "offered " + std::to_string(st.offered) + " of " +
            std::to_string(rig.arena->config().max_requests) + " requests");
  check(r, st.offered == st.accepted + st.rejected_capacity + st.rejected_cost,
        "offered != accepted + rejected_capacity + rejected_cost");
  if (rig.timed != nullptr) {
    check(r, rig.timed->samples().size() == st.offered,
          "the embedder decorator missed embed calls");
  }

  FleetScan fleet = scan_fleet(cloud.fleet(), spans);
  check_fleet(r, fleet);
  cloud.stop_rebalancing();
  {
    SpanScope span(spans, "sim.settle");
    cloud.run_until(cloud.now() + kSettleS);
  }
  check_settled(r, cloud);
  std::uint64_t placed_vms = 0;
  for (const auto& [tenant, vms] : adm.placed_by_tenant()) placed_vms += vms.size();
  for (const auto& [id, b] : adm.active()) {
    bool whole = b.outcome.vms.size() == static_cast<std::size_t>(b.n_vms);
    for (host::VmId v : b.outcome.vms) {
      const host::Vm& vm = cloud.fleet().vm(v);
      whole = whole && !vm.destroyed && vm.host >= 0;
    }
    if (!whole) {
      check(r, false, "active bundle " + std::to_string(id) +
                          " does not hold its " + std::to_string(b.n_vms) +
                          " live VMs");
      break;
    }
  }

  if (spans != nullptr) {
    double run_s = spans->total_s("arena.run");
    fill_common_layers(r, s0, s1, run_s, pending_end, fleet, *spans);
    fill_shuffle_layers(r, s0, s1);
    auto& m = r.layer;
    m["pastry.msgs.aggregation"] = delta(s0, s1, "pastry.msgs.aggregation");
    m["pastry.msgs.overlay"] = delta(s0, s1, "pastry.msgs.overlay");
    double embed_s = spans->total_s("arena.embed");
    double release_s = spans->total_s("arena.release");
    m["arena.embed_s"] = embed_s;
    m["arena.release_s"] = release_s;
    m["arena.loop_other_s"] = run_s - embed_s - release_s;
    if (rig.timed != nullptr) fill_embed_layers(r, *rig.timed);
    m["arena.probes_per_vm"] = ratio(static_cast<double>(st.hosts_probed),
                                     static_cast<double>(st.vms_accepted));
    m["arena.offered"] = static_cast<double>(st.offered);
    m["arena.accepted"] = static_cast<double>(st.accepted);
    m["arena.active_end"] = static_cast<double>(adm.active().size());
    m["arena.placed_vms_end"] = static_cast<double>(placed_vms);
  }

  r.peak_rss_mib = peak_rss_mib();
  if (!rc.instrumented) return r;
  std::vector<std::uint8_t> image;
  {
    SpanScope span(spans, "ckpt.save");
    image = rig.arena->save_checkpoint();
  }
  r.ckpt_bytes = image.size();
  // The image holds everything the restore needs.
  rig.timed.reset();
  rig.arena.reset();
  rig.cloud.reset();
  // A decorated fresh arena also proves the decorator forwards reacquire.
  ArenaRig fresh = build_arena(w, rc.seed, /*decorate=*/true, nullptr);
  {
    SpanScope span(spans, "ckpt.restore");
    fresh.arena->restore_checkpoint(image);
  }
  check_images(r, image, fresh.arena->save_checkpoint());
  if (spans != nullptr) fill_ckpt_layers(r, *spans);
  return r;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<const char*> required_spans(const Workload& w) {
  std::vector<const char*> names = {
      "bench.rep",    "setup.cloud", "pastry.export_metrics",
      "vbundle.collect_metrics", "fleet.scan", "sim.settle",
      "ckpt.save",    "ckpt.restore"};
  if (w.kind == WorkloadKind::kRebalance) {
    names.insert(names.end(), {"setup.pack", "update.window", "rebalance.window"});
  } else {
    names.insert(names.end(),
                 {"setup.arena", "arena.run", "arena.embed", "arena.release"});
  }
  return names;
}

RepResult run_rep(const Workload& w, const RepConfig& rc) {
  return w.kind == WorkloadKind::kRebalance ? run_rebalance(w, rc)
                                            : run_arena(w, rc);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace vbbench
