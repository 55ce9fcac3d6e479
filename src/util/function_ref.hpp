// Non-owning reference to a callable: two pointers, trivially copyable,
// never allocates.
//
// The engine's per-operation protocol (Engine::perform/wait, DESIGN.md §10)
// takes its action, wait condition and finalize as FunctionRef instead of
// std::function: a std::function built from a `[&]` lambda whose captures
// exceed the library's small buffer heap-allocates once per call, which at
// millions of simulated operations per second is pure host overhead.
//
// Lifetime: a FunctionRef does not own its target. The referenced callable
// must outlive every call through the ref. Binding a lambda temporary in a
// call argument (`eng.perform(r, [&] { ... })`) is safe because the
// temporary lives until the full expression ends; storing a ref past the
// call that received it is not (unless the target is known to outlive it).
// A default-constructed ref, and one bound to a null function pointer, is
// empty: it tests false and must not be called.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace mrl::util {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  /// Binds any callable invocable as R(Args...): lambdas, function objects
  /// (including a std::function, whose own target is then called through
  /// it), function pointers and function references. Implicit on purpose so
  /// call sites pass lambdas directly. A void ref discards the result.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept {  // NOLINT(google-explicit-constructor)
    using T = std::remove_reference_t<F>;
    if constexpr (std::is_function_v<T> ||
                  (std::is_pointer_v<T> &&
                   std::is_function_v<std::remove_pointer_t<T>>)) {
      // A function pointer is stored by value (a pointer to the caller's
      // pointer variable could dangle); a null one leaves the ref empty.
      using Fn = std::add_pointer_t<std::remove_pointer_t<T>>;
      const Fn fn = f;
      if (fn == nullptr) return;
      target_.fn = reinterpret_cast<void (*)()>(fn);
      call_ = [](Target t, Args... args) -> R {
        return static_cast<R>(std::invoke(reinterpret_cast<Fn>(t.fn),
                                          std::forward<Args>(args)...));
      };
    } else {
      target_.obj = const_cast<void*>(
          static_cast<const void*>(std::addressof(f)));
      call_ = [](Target t, Args... args) -> R {
        return static_cast<R>(std::invoke(*static_cast<T*>(t.obj),
                                          std::forward<Args>(args)...));
      };
    }
  }

  R operator()(Args... args) const {
    return call_(target_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

 private:
  union Target {
    void* obj;
    void (*fn)();
  };

  Target target_{nullptr};
  R (*call_)(Target, Args...) = nullptr;
};

}  // namespace mrl::util
