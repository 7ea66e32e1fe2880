#include "arena/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vb::arena {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
}

AdmissionController::AdmissionController(core::VBundleCloud* cloud,
                                         Embedder* embedder, Config cfg)
    : cloud_(cloud), embedder_(embedder), cfg_(cfg) {
  if (cloud == nullptr || embedder == nullptr) {
    throw std::invalid_argument("AdmissionController: null cloud/embedder");
  }
  if (cfg_.horizon_s <= 0) {
    throw std::invalid_argument("AdmissionController: horizon must be > 0");
  }
}

double AdmissionController::price(const VcRequest& req) const {
  double hours = std::min(req.lifetime_s, cfg_.horizon_s) / 3600.0;
  double per_vm_hour = cfg_.pricing.vm_hour +
                       req.spec.reservation_mbps / 1000.0 *
                           cfg_.pricing.bw_gbps_hour;
  return hours * static_cast<double>(req.n_vms) * per_vm_hour;
}

host::CustomerId AdmissionController::customer_for(const std::string& tenant) {
  auto it = customer_ids_.find(tenant);
  if (it != customer_ids_.end()) return it->second;
  host::CustomerId c = cloud_->add_customer(tenant);
  customer_ids_.emplace(tenant, c);
  return c;
}

bool AdmissionController::offer(const VcRequest& req) {
  ++stats_.offered;
  double p = price(req);
  stats_.offered_revenue += p;
  TenantStats& ts = tenants_[req.tenant];
  ++ts.offered;

  host::CustomerId c = customer_for(req.tenant);
  EmbedOutcome o = embedder_->embed(req, c);
  stats_.hosts_probed += o.hosts_probed;
  stats_.decision_fingerprint =
      (stats_.decision_fingerprint ^ (req.id * 2 + (o.ok ? 1 : 0))) *
      kFnvPrime;

  if (!o.ok) {
    if (o.cost_rejected) {
      ++stats_.rejected_cost;
    } else {
      ++stats_.rejected_capacity;
    }
    ++ts.consecutive_rejects;
    if (ts.consecutive_rejects == cfg_.slo_reject_streak) ++ts.slo_violations;
    return false;
  }

  ++stats_.accepted;
  ++ts.accepted;
  ts.consecutive_rejects = 0;
  stats_.vms_accepted += o.vms.size();
  stats_.revenue += p;

  std::vector<host::VmId>& tenant_vms = placed_[req.tenant];
  tenant_vms.insert(tenant_vms.end(), o.vms.begin(), o.vms.end());

  ActiveBundle b;
  b.request_id = req.id;
  b.customer = c;
  b.tenant = req.tenant;
  b.depart_s = req.arrival_s + req.lifetime_s;  // inf-safe
  b.revenue = p;
  b.n_vms = req.n_vms;
  b.shape = req.shape;
  b.outcome = std::move(o);
  auto [it, inserted] = active_.emplace(req.id, std::move(b));
  if (inserted) departures_.emplace(it->second.depart_s, req.id);
  return true;
}

double AdmissionController::next_departure() const {
  return departures_.empty() ? std::numeric_limits<double>::infinity()
                             : departures_.begin()->first;
}

int AdmissionController::process_departures(double now, double retry_s) {
  // Deferred bundles are re-keyed only after the sweep, so each bundle due
  // now is visited once, in (depart_s, id) order.
  std::vector<std::pair<double, std::uint64_t>> deferred;
  int done = 0;
  while (!departures_.empty() && departures_.begin()->first <= now) {
    std::uint64_t id = departures_.begin()->second;
    departures_.erase(departures_.begin());
    ActiveBundle& b = active_.at(id);
    bool migrating = false;
    for (host::VmId v : b.outcome.vms) {
      if (cloud_->fleet().vm(v).migrating) {
        migrating = true;
        break;
      }
    }
    if (migrating) {
      // The shuffler has this bundle's VM on the wire; destroying it now
      // would corrupt the migration.  Come back shortly.
      b.depart_s = now + retry_s;
      deferred.emplace_back(b.depart_s, id);
      continue;
    }
    for (host::VmId v : b.outcome.vms) cloud_->shutdown_vm(v);
    embedder_->release(b.outcome);
    active_.erase(id);
    ++done;
  }
  departures_.insert(deferred.begin(), deferred.end());
  return done;
}

void AdmissionController::apply_demand(double t) {
  host::Fleet& fleet = cloud_->fleet();
  for (const auto& [id, b] : active_) {
    if (b.shape.kind == load::Demand::Kind::kNone) continue;
    for (std::size_t i = 0; i < b.outcome.vms.size(); ++i) {
      fleet.set_demand(b.outcome.vms[i],
                       vm_demand(b.shape, static_cast<int>(i), b.n_vms).at(t));
    }
  }
}

Embedder* AdmissionController::set_embedder(Embedder* e) {
  if (e == nullptr) {
    throw std::invalid_argument("AdmissionController: null embedder");
  }
  Embedder* old = embedder_;
  embedder_ = e;
  return old;
}

std::uint64_t AdmissionController::slo_violations() const {
  std::uint64_t total = 0;
  for (const auto& [name, ts] : tenants_) total += ts.slo_violations;
  return total;
}

template <class IO>
void AdmissionController::ckpt_io(IO& io) {
  io.loading([&] {
    if (cloud_->num_customers() != 0 || !active_.empty()) {
      throw ckpt::CkptError(
          "arena_admission: restore requires a fresh cloud/controller");
    }
  });
  io.section("arena_admission", [&] {
    io.section("stats", [&] {
      io.u64(stats_.offered);
      io.u64(stats_.accepted);
      io.u64(stats_.rejected_capacity);
      io.u64(stats_.rejected_cost);
      io.u64(stats_.vms_accepted);
      io.u64(stats_.hosts_probed);
      io.f64(stats_.revenue);
      io.f64(stats_.offered_revenue);
      io.u64(stats_.decision_fingerprint);
    });

    // Customers in registration (= CustomerId) order, so restore re-adds
    // them exactly as the original run did and the cloud image's
    // verification of customer keys passes.
    std::vector<std::string> by_id(customer_ids_.size());
    for (const auto& [name, id] : customer_ids_) {
      by_id.at(static_cast<std::size_t>(id)) = name;
    }
    io.section("customers", [&] {
      // During each restore step by_id holds the names read before it.
      io.seq(by_id, [&](std::string& name) {
        io.str(name);
        io.loading([&] {
          host::CustomerId c = cloud_->add_customer(name);
          if (c != static_cast<host::CustomerId>(by_id.size())) {
            throw ckpt::CkptError(
                "arena_admission: customer id drift on restore");
          }
          customer_ids_.emplace(name, c);
        });
      });
    });

    io.section("tenants", [&] {
      io.map(tenants_, [&](std::string& name, TenantStats& ts) {
        io.str(name);
        io.u64(ts.offered);
        io.u64(ts.accepted);
        io.u64(ts.consecutive_rejects);
        io.u64(ts.slo_violations);
      });
    });

    io.section("active", [&] {
      io.map(active_, [&](std::uint64_t& id, ActiveBundle& b) {
        io.u64(b.request_id);
        io.i64(b.customer);
        io.str(b.tenant);
        io.f64(b.depart_s);
        io.f64(b.revenue);
        io.i64(b.n_vms);
        b.shape.ckpt_io(io);
        io.seq(b.outcome.vms, [&](host::VmId& v) { io.i64(v); });
        io.seq(b.outcome.uplink_holds,
               [&](std::pair<net::LinkId, double>& hold) {
                 io.i64(hold.first);
                 io.f64(hold.second);
               });
        io.loading([&] {
          id = b.request_id;
          b.outcome.ok = true;
          // Rebuild the uplink ledgers, which the cloud image doesn't carry.
          embedder_->reacquire(b.outcome);
          departures_.emplace(b.depart_s, b.request_id);
        });
      });
    });

    io.section("placed", [&] {
      io.map(placed_, [&](std::string& tenant, std::vector<host::VmId>& vms) {
        io.str(tenant);
        io.seq(vms, [&](host::VmId& v) { io.i64(v); });
      });
    });
  });
}

template void AdmissionController::ckpt_io(ckpt::Writer&);
template void AdmissionController::ckpt_io(ckpt::Reader&);

}  // namespace vb::arena
