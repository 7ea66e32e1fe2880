#include "hostmodel/host.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace vb::host {

Fleet::Fleet(int num_hosts, double nic_capacity_mbps, double cpu_capacity,
             double mem_capacity_mb) {
  if (num_hosts <= 0 || nic_capacity_mbps <= 0 || cpu_capacity <= 0 ||
      mem_capacity_mb <= 0) {
    throw std::invalid_argument("Fleet: invalid dimensions");
  }
  hosts_.reserve(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    hosts_.emplace_back(h, nic_capacity_mbps, cpu_capacity, mem_capacity_mb);
  }
}

VmId Fleet::create_vm(CustomerId customer, const VmSpec& spec) {
  if (!spec.valid()) throw std::invalid_argument("Fleet: invalid VmSpec");
  Vm v;
  v.id = static_cast<VmId>(vms_.size());
  v.customer = customer;
  v.spec = spec;
  vms_.push_back(v);
  return v.id;
}

bool Fleet::place(VmId id, int h) {
  Vm& v = vm(id);
  if (v.host != -1) throw std::logic_error("Fleet::place: VM already placed");
  Host& dst = host(h);
  if (!dst.can_admit(v.spec)) return false;
  dst.vms_.push_back(id);
  dst.reserve(v.spec);
  mark_dirty(h);
  v.host = h;
  return true;
}

void Fleet::unplace(VmId id) {
  Vm& v = vm(id);
  if (v.host == -1) throw std::logic_error("Fleet::unplace: VM not placed");
  Host& src = host(v.host);
  auto it = std::find(src.vms_.begin(), src.vms_.end(), id);
  if (it == src.vms_.end()) {
    throw std::logic_error("Fleet::unplace: host/vm bookkeeping mismatch");
  }
  src.vms_.erase(it);
  src.unreserve(v.spec);
  mark_dirty(v.host);
  v.host = -1;
}

void Fleet::migrate(VmId id, int dst, bool consume_hold) {
  Vm& v = vm(id);
  unplace(id);
  Host& d = host(dst);
  if (consume_hold) {
    // The receiver held the reservations when accepting the anycast query;
    // placing the VM converts the hold into real reservations.
    d.unreserve(v.spec);
  }
  d.vms_.push_back(id);
  d.reserve(v.spec);
  mark_dirty(dst);
  v.host = dst;
  v.migrating = false;
}

void Fleet::hold_all(int h, const VmSpec& spec) {
  host(h).reserve(spec);
  mark_dirty(h);
}

void Fleet::release_hold_all(int h, const VmSpec& spec) {
  host(h).unreserve(spec);
  mark_dirty(h);
}

void Fleet::mark_dirty(int h) {
  // Host h lies in chunk c iff n*c/64 <= h < n*(c+1)/64 (floored), i.e.
  // c = ceil(64*(h+1)/n) - 1.
  const std::uint64_t n = hosts_.size();
  const std::uint64_t c =
      (kFreeChunks * (static_cast<std::uint64_t>(h) + 1) - 1) / n;
  free_dirty_ |= std::uint64_t{1} << c;
}

void Fleet::destroy_vm(VmId id) {
  Vm& v = vm(id);
  if (v.destroyed) throw std::logic_error("Fleet::destroy_vm: already gone");
  if (v.migrating) {
    throw std::logic_error("Fleet::destroy_vm: migration in flight");
  }
  if (v.host != -1) unplace(id);
  v.destroyed = true;
  v.demand_mbps = 0.0;
  v.cpu_demand = 0.0;
}

void Fleet::set_demand(VmId id, double mbps) {
  if (mbps < 0) throw std::invalid_argument("Fleet::set_demand: negative");
  vm(id).demand_mbps = mbps;
}

void Fleet::set_cpu_demand(VmId id, double units) {
  if (units < 0) throw std::invalid_argument("Fleet::set_cpu_demand: negative");
  vm(id).cpu_demand = units;
}

double Fleet::host_demand_mbps(int h) const {
  double total = 0.0;
  for (VmId id : host(h).vms()) total += vm(id).capped_demand();
  return total;
}

double Fleet::host_utilization(int h) const {
  return host_demand_mbps(h) / host(h).capacity_mbps();
}

double Fleet::host_cpu_demand(int h) const {
  double total = 0.0;
  for (VmId id : host(h).vms()) total += vm(id).capped_cpu_demand();
  return total;
}

double Fleet::host_cpu_utilization(int h) const {
  return host_cpu_demand(h) / host(h).cpu_capacity();
}

double Fleet::host_mem_utilization(int h) const {
  double total = 0.0;
  for (VmId id : host(h).vms()) total += vm(id).spec.ram_mb;
  return total / host(h).mem_capacity_mb();
}

std::vector<std::pair<VmId, double>> Fleet::shape_host(int h) const {
  const Host& hh = host(h);
  std::vector<ShaperClass> classes;
  classes.reserve(hh.vms().size());
  for (VmId id : hh.vms()) {
    const Vm& v = vm(id);
    classes.push_back(ShaperClass{v.spec.reservation_mbps, v.spec.limit_mbps,
                                  v.demand_mbps});
  }
  std::vector<double> alloc = shape(hh.capacity_mbps(), classes);
  std::vector<std::pair<VmId, double>> out;
  out.reserve(alloc.size());
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    out.emplace_back(hh.vms()[i], alloc[i]);
  }
  return out;
}

double Fleet::total_satisfied_mbps() const {
  double total = 0.0;
  for (const Host& h : hosts_) {
    for (const auto& [id, mbps] : shape_host(h.id())) total += mbps;
  }
  return total;
}

double Fleet::total_demand_mbps() const {
  double total = 0.0;
  for (const Vm& v : vms_) {
    if (v.host != -1) total += v.capped_demand();
  }
  return total;
}

std::vector<double> Fleet::utilization_snapshot() const {
  std::vector<double> out;
  out.reserve(hosts_.size());
  for (const Host& h : hosts_) out.push_back(host_utilization(h.id()));
  return out;
}

std::vector<double> Fleet::free_reservation_snapshot() const {
  std::vector<double> out;
  out.reserve(hosts_.size());
  for (const Host& h : hosts_) out.push_back(h.free_reservation_mbps());
  return out;
}

double Fleet::free_reservation_total() const {
  const std::size_t n = hosts_.size();
  for (std::uint64_t d = free_dirty_; d != 0; d &= d - 1) {
    const int c = std::countr_zero(d);
    const std::size_t lo = n * static_cast<std::size_t>(c) / kFreeChunks;
    const std::size_t hi = n * static_cast<std::size_t>(c + 1) / kFreeChunks;
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      s += hosts_[i].free_reservation_mbps();
    }
    free_partial_[static_cast<std::size_t>(c)] = s;
  }
  free_dirty_ = 0;
  double total = 0.0;
  for (double s : free_partial_) total += s;
  return total;
}

void Fleet::ckpt_save(ckpt::Writer& w) const {
  w.begin_section("fleet");
  w.u32(static_cast<std::uint32_t>(hosts_.size()));
  for (const Host& h : hosts_) {
    w.f64(h.capacity_mbps_);
    w.f64(h.cpu_capacity_);
    w.f64(h.mem_capacity_mb_);
    w.f64(h.reserved_mbps_);
    w.f64(h.reserved_cpu_);
    w.f64(h.reserved_mem_mb_);
    w.u32(static_cast<std::uint32_t>(h.vms_.size()));
    for (VmId id : h.vms_) w.i64(id);
  }
  w.u32(static_cast<std::uint32_t>(vms_.size()));
  for (const Vm& v : vms_) {
    w.i64(v.customer);
    w.f64(v.spec.reservation_mbps);
    w.f64(v.spec.limit_mbps);
    w.f64(v.spec.ram_mb);
    w.f64(v.spec.cpu_reservation);
    w.f64(v.spec.cpu_limit);
    w.i64(v.host);
    w.f64(v.demand_mbps);
    w.f64(v.cpu_demand);
    w.boolean(v.migrating);
    w.boolean(v.destroyed);
  }
  w.end_section();
}

void Fleet::ckpt_restore(ckpt::Reader& r) {
  free_dirty_ = ~std::uint64_t{0};  // every host's reservations are rewritten
  r.enter_section("fleet");
  std::uint32_t nh = r.u32();
  if (nh != hosts_.size()) {
    throw ckpt::CkptError("fleet: host count mismatch (checkpoint " +
                          std::to_string(nh) + ", reconstruction " +
                          std::to_string(hosts_.size()) + ")");
  }
  for (Host& h : hosts_) {
    double cap = r.f64();
    double cpu = r.f64();
    double mem = r.f64();
    if (cap != h.capacity_mbps_ || cpu != h.cpu_capacity_ ||
        mem != h.mem_capacity_mb_) {
      throw ckpt::CkptError("fleet: host " + std::to_string(h.id_) +
                            " capacity mismatch");
    }
    h.reserved_mbps_ = r.f64();
    h.reserved_cpu_ = r.f64();
    h.reserved_mem_mb_ = r.f64();
    h.vms_.clear();
    std::uint32_t nv = r.u32();
    h.vms_.reserve(nv);
    for (std::uint32_t i = 0; i < nv; ++i) {
      h.vms_.push_back(static_cast<VmId>(r.i64()));
    }
  }
  // VMs may have been booted after setup, so the table is rebuilt wholesale
  // rather than verified against the reconstruction.
  std::uint32_t nv = r.u32();
  vms_.clear();
  vms_.reserve(nv);
  for (std::uint32_t i = 0; i < nv; ++i) {
    Vm v;
    v.id = static_cast<VmId>(i);
    v.customer = static_cast<CustomerId>(r.i64());
    v.spec.reservation_mbps = r.f64();
    v.spec.limit_mbps = r.f64();
    v.spec.ram_mb = r.f64();
    v.spec.cpu_reservation = r.f64();
    v.spec.cpu_limit = r.f64();
    v.host = static_cast<int>(r.i64());
    v.demand_mbps = r.f64();
    v.cpu_demand = r.f64();
    v.migrating = r.boolean();
    v.destroyed = r.boolean();
    vms_.push_back(v);
  }
  r.exit_section();
}

}  // namespace vb::host
