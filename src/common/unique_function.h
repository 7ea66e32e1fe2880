// Move-only callable wrapper with small-buffer optimization.
//
// std::function heap-allocates any closure larger than its (tiny,
// implementation-defined) inline buffer and requires the target to be
// copyable.  The simulator schedules millions of closures per run — a Pastry
// route hop in flight captures 96 bytes — so the event hot path needs a
// callable that (a) never allocates for closures up to a chosen size and
// (b) accepts move-only captures.  UniqueFunction is that type: a move-only
// std::function substitute whose inline capacity is a template parameter.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vb {

/// Default inline capacity, sized so every closure the overlay transport
/// schedules (its delivery step plus the message) stays inline.  The
/// route-hop closure takes 96 of these 128 bytes and the direct-message
/// closure 72; a static_assert in PastryNetwork::transmit keeps them from
/// silently outgrowing the buffer, which would reintroduce one heap
/// allocation per hop (a measured ~15% route-throughput loss).
inline constexpr std::size_t kDefaultInlineBytes = 128;

template <class Sig, std::size_t InlineBytes = kDefaultInlineBytes>
class UniqueFunction;  // primary template, never defined

template <class R, class... Args, std::size_t InlineBytes>
class UniqueFunction<R(Args...), InlineBytes> {
 public:
  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, UniqueFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFunction& operator=(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, &storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Inline capacity in bytes (targets larger than this are heap-allocated).
  static constexpr std::size_t inline_capacity() { return InlineBytes; }

  /// True if the current target lives in the inline buffer (no heap).
  bool is_inline() const noexcept { return invoke_ != nullptr && inline_; }

 private:
  enum class Op { kDestroy, kMove };

  template <class D, class F>
  void construct(F&& f) {
    if constexpr (sizeof(D) <= InlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        if (op == Op::kMove) {
          ::new (to) D(std::move(*src));
        }
        src->~D();
      };
      inline_ = true;
    } else {
      // Oversized (or throwing-move) target: one heap allocation, with the
      // pointer itself stored inline so moves stay a trivial copy.
      D* p = new D(std::forward<F>(f));
      ::new (static_cast<void*>(&storage_)) D*(p);
      invoke_ = [](void* s, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(s)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* from, void* to) noexcept {
        D** src = std::launder(reinterpret_cast<D**>(from));
        if (op == Op::kMove) {
          ::new (to) D*(*src);
        } else {
          delete *src;
        }
      };
      inline_ = false;
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    inline_ = other.inline_;
    if (manage_ != nullptr) manage_(Op::kMove, &other.storage_, &storage_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*manage_)(Op, void*, void*) noexcept = nullptr;
  bool inline_ = false;
};

}  // namespace vb
