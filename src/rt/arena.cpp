// Compile anchor + layout audit for the rt register layer.
//
// The arena and registers are header-only templates; this TU instantiates
// the full surface standalone for representative payloads (a word, a
// stamped double word, and a heap-owning vector) so layout regressions and
// template breakage surface in the library build, not in whichever test
// happens to instantiate the broken combination first.
#include <cstdint>
#include <vector>

#include "rt/reclaim.hpp"
#include "rt/register.hpp"

namespace apram::rt {

namespace {

// The FArray node shape: a stamp plus a word, compared by stamp alone.
struct StampedWord {
  std::uint64_t seq;
  std::int64_t v;
  friend bool operator==(const StampedWord& a, const StampedWord& b) {
    return a.seq == b.seq;
  }
};

}  // namespace

template class reclaim::VersionArena<int>;
template class reclaim::VersionArena<std::vector<std::uint64_t>>;
template class Register<std::int64_t>;
template class Register<StampedWord>;
template class Register<std::vector<std::uint64_t>>;

namespace {

using ArenaI = reclaim::VersionArena<int>;

// Control-word packing: count and handle must tile the 64-bit word exactly,
// and every addressable slot (plus the kNilSlot sentinel, which only ever
// lives in free-list links, never in the control word) must fit the handle
// field.
static_assert(ArenaI::kSlotBits == 24);
static_assert(ArenaI::kCountOne == (std::uint64_t{1} << ArenaI::kSlotBits));
static_assert(ArenaI::kSlotMask == ArenaI::kCountOne - 1);
static_assert(ArenaI::kMaxSlots < ArenaI::kSlotMask,
              "slot handles must be representable in the control word");
static_assert(ArenaI::kNilSlot > ArenaI::kSlotMask,
              "the nil sentinel must be outside the handle range");

// Cache-line audit, whole-class view (the per-member asserts live inside
// VersionArena where the private types are visible): the arena itself is
// line-aligned because its first hot member (the control word) is, so two
// arenas in an array never share the control line. An inline register
// owns its line for the same reason.
static_assert(alignof(ArenaI) >= 64);
static_assert(alignof(reclaim::VersionArena<std::vector<std::uint64_t>>) >=
              64);
static_assert(alignof(Register<std::int64_t>) == 64 &&
              sizeof(Register<std::int64_t>) == 64);

// The one-instruction reader protocol needs a genuinely atomic 64-bit RMW.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the control word must be a native atomic");

}  // namespace

}  // namespace apram::rt
