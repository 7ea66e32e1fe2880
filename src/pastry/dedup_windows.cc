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

template <class IO>
void DedupWindows::ckpt_io(IO& io) {
  // Restore checks each element against those read before it, which
  // seq() has already appended.
  io.seq(windows_, [&](Window& win) {
    io.u128(win.sender);
    io.u64(win.floor);
    io.loading([&] {
      if (!windows_.empty() && !(windows_.back().sender < win.sender)) {
        throw ckpt::CkptError(
            "dedup windows: senders not in strictly ascending order");
      }
    });
    io.seq(win.above, [&](std::uint64_t& s) {
      io.u64(s);
      io.loading([&] {
        if (s <= win.floor) {
          throw ckpt::CkptError("dedup windows: listed seq " +
                                std::to_string(s) + " at or below its floor " +
                                std::to_string(win.floor));
        }
        if (!win.above.empty() && s <= win.above.back()) {
          throw ckpt::CkptError(
              "dedup windows: listed seqs not in strictly ascending order");
        }
      });
    });
  });
}

template void DedupWindows::ckpt_io(ckpt::Writer&);
template void DedupWindows::ckpt_io(ckpt::Reader&);

}  // namespace vb::pastry
