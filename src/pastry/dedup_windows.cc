#include "pastry/dedup_windows.h"

#include <algorithm>
#include <string>
#include <utility>

namespace vb::pastry {

bool DedupWindows::accept(const U128& sender, std::uint64_t seq,
                          std::uint64_t floor) {
  auto it = std::lower_bound(
      windows_.begin(), windows_.end(), sender,
      [](const Window& w, const U128& s) { return w.sender < s; });
  if (it == windows_.end() || it->sender != sender) {
    it = windows_.insert(it, Window{sender, 0, {}});
  }
  Window& w = *it;
  auto pos = std::lower_bound(w.above.begin(), w.above.end(), seq);
  if (seq < w.floor || (pos != w.above.end() && *pos == seq)) return false;

  w.floor = std::max(w.floor, floor);
  if (seq == w.floor) {
    ++w.floor;  // the usual case: in order, so nothing to list
  } else {
    w.above.insert(pos, seq);
  }
  // Drop listed seqs the floor passed, and advance it over the run of
  // listed seqs now contiguous with it.
  auto keep = w.above.begin();
  for (; keep != w.above.end() && *keep <= w.floor; ++keep) {
    if (*keep == w.floor) ++w.floor;
  }
  w.above.erase(w.above.begin(), keep);
  return true;
}

std::size_t DedupWindows::entries() const {
  std::size_t n = 0;
  for (const Window& w : windows_) n += w.above.size();
  return n;
}

void DedupWindows::ckpt_save(ckpt::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(windows_.size()));
  for (const Window& win : windows_) {
    w.u128(win.sender);
    w.u64(win.floor);
    w.u32(static_cast<std::uint32_t>(win.above.size()));
    for (std::uint64_t s : win.above) w.u64(s);
  }
}

void DedupWindows::ckpt_restore(ckpt::Reader& r) {
  windows_.clear();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Window win;
    win.sender = r.u128();
    win.floor = r.u64();
    if (!windows_.empty() && !(windows_.back().sender < win.sender)) {
      throw ckpt::CkptError(
          "dedup windows: senders not in strictly ascending order");
    }
    std::uint32_t listed = r.u32();
    std::uint64_t prev = win.floor;
    for (std::uint32_t k = 0; k < listed; ++k) {
      std::uint64_t s = r.u64();
      if (s <= win.floor) {
        throw ckpt::CkptError("dedup windows: listed seq " + std::to_string(s) +
                              " at or below its floor " +
                              std::to_string(win.floor));
      }
      if (s <= prev) {
        throw ckpt::CkptError(
            "dedup windows: listed seqs not in strictly ascending order");
      }
      win.above.push_back(s);
      prev = s;
    }
    windows_.push_back(std::move(win));
  }
}

}  // namespace vb::pastry
