// Generation-checked slot table for per-query state whose key its owner mints.
//
// The resolver's requests and tasks and the DCC shim's queued queries are
// found again only by an id the table itself handed out, so a hash table's
// hash, bucket probe and key compare buy nothing there. A SlotTable keeps its
// entries in one array of slots and names an entry by `generation << 32 |
// slot`: a lookup is one indexed load and one generation compare.
//
// Contract:
//  - Ids are never 0 and never handed out twice. Each slot counts its
//    generations (odd while live, even while dead); an id whose generation
//    no longer matches its slot finds nothing, whether its entry was erased
//    or its slot was reused since. A slot whose generation counter would
//    wrap is retired, not reused.
//  - erase destroys the entry at once and threads its slot onto an intrusive
//    free list (the next index lives in the dead slot's header), so there is
//    no second container to allocate. The most recently freed slot is
//    reused first. Erase moves no other entry.
//  - Growth doubles the slot array and moves the live entries into it, so an
//    emplace invalidates references to every entry, as a FlatMap insert
//    does. Do not hold a reference across an emplace.
//  - Slot order follows the free list, not age or id, so the only
//    iteration offered, ForEach, is for order-free sweeps (cancelling every
//    timer, summing bytes). Nothing may depend on its order.
//  - Under AddressSanitizer the storage of every dead or never-used slot is
//    poisoned, so a reference kept across an erase faults at its first use.

#ifndef SRC_COMMON_SLOT_TABLE_H_
#define SRC_COMMON_SLOT_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define DCC_SLOT_TABLE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCC_SLOT_TABLE_ASAN 1
#endif
#endif
#ifdef DCC_SLOT_TABLE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dcc {

template <class T>
class SlotTable {
 public:
  using Id = uint64_t;

  SlotTable() = default;
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;
  ~SlotTable() {
    clear();
    Unpoison(0, capacity_);
  }

  size_t size() const { return size_; }

  // Builds an entry from `args` and returns its fresh id and the entry.
  template <class... Args>
  std::pair<Id, T&> emplace(Args&&... args) {
    uint32_t index;
    if (free_head_ != kNoSlot) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      if (used_ == capacity_) {
        Grow();
      }
      index = used_++;
      slots_[index].generation = 0;
    }
    Slot& slot = slots_[index];
    Unpoison(index, index + 1);
    T* value = ::new (slot.storage) T(std::forward<Args>(args)...);
    ++slot.generation;  // Even (dead) to odd (live).
    ++size_;
    return {(static_cast<Id>(slot.generation) << 32) | index, *value};
  }

  // The live entry `id` names, or nullptr.
  T* find(Id id) { return const_cast<T*>(std::as_const(*this).find(id)); }
  const T* find(Id id) const {
    const auto index = static_cast<uint32_t>(id);
    if (index >= used_ || slots_[index].generation != static_cast<uint32_t>(id >> 32) ||
        !IsLive(slots_[index])) {
      return nullptr;
    }
    return Value(slots_[index]);
  }
  bool contains(Id id) const { return find(id) != nullptr; }

  // Precondition: `id` is live (asserted).
  T& at(Id id) {
    T* value = find(id);
    assert(value != nullptr);
    return *value;
  }

  // Destroys the entry `id` names. Returns false (and does nothing) for an
  // id that is not live.
  bool erase(Id id) {
    if (!contains(id)) {
      return false;
    }
    Release(static_cast<uint32_t>(id));
    return true;
  }

  // Moves the entry `id` names out and erases it; nullopt if not live.
  std::optional<T> Take(Id id) {
    T* value = find(id);
    if (value == nullptr) {
      return std::nullopt;
    }
    std::optional<T> taken(std::move(*value));
    Release(static_cast<uint32_t>(id));
    return taken;
  }

  // Destroys every entry. Slots and their generations are kept, so no id
  // handed out before the clear is ever handed out again.
  void clear() {
    for (uint32_t index = 0; index < used_; ++index) {
      if (IsLive(slots_[index])) {
        Release(index);
      }
    }
  }

  // Calls `fn(const T&)` on every live entry, in slot order. For order-free
  // sweeps only (see the header comment).
  template <class Fn>
  void ForEach(Fn fn) const {
    for (uint32_t index = 0; index < used_; ++index) {
      if (IsLive(slots_[index])) {
        fn(*Value(slots_[index]));
      }
    }
  }

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  // As FlatMap's first step: a slot costs what a FlatMap entry of the same
  // value does (8 bytes plus T), so no table outgrows the one it replaced.
  static constexpr uint32_t kFirstCapacity = 12;

  // Storage is at least 8-aligned, and each slot a multiple of 8 bytes, so
  // poisoning from the storage to the slot's end covers whole ASan granules.
  // Slots past used_ are never written (not even their header, which is
  // set when the slot is first taken), so the pages of an array's unused
  // tail stay untouched and cost no resident memory.
  struct Slot {
    uint32_t generation;  // Odd while live.
    uint32_t next_free;   // While dead and on the free list.
    alignas(std::max(alignof(T), alignof(uint64_t))) unsigned char storage[sizeof(T)];
  };
  static constexpr size_t kStorageBytes = sizeof(Slot) - offsetof(Slot, storage);

  static bool IsLive(const Slot& slot) { return (slot.generation & 1) != 0; }
  static T* Value(const Slot& slot) {
    return std::launder(reinterpret_cast<T*>(const_cast<unsigned char*>(slot.storage)));
  }

  // Destroys the live entry in slot `index` and frees the slot.
  void Release(uint32_t index) {
    Slot& slot = slots_[index];
    Value(slot)->~T();
    Poison(index, index + 1);
    --size_;
    if (slot.generation == ~uint32_t{0}) {
      slot.generation = 0;  // Retired: dead, and never handed out again.
      return;
    }
    ++slot.generation;  // Odd (live) to even (dead).
    slot.next_free = free_head_;
    free_head_ = index;
  }

  void Grow() {
    const uint32_t capacity = capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    assert(capacity > capacity_);
    std::unique_ptr<Slot[]> grown(new Slot[capacity]);
    for (uint32_t index = 0; index < used_; ++index) {
      Slot& from = slots_[index];
      Slot& to = grown[index];
      to.generation = from.generation;
      to.next_free = from.next_free;
      if (IsLive(from)) {
        ::new (to.storage) T(std::move(*Value(from)));
        Value(from)->~T();
      }
    }
    Unpoison(0, capacity_);
    slots_ = std::move(grown);
    capacity_ = capacity;
    for (uint32_t index = 0; index < capacity_; ++index) {
      if (index >= used_ || !IsLive(slots_[index])) {
        Poison(index, index + 1);
      }
    }
  }

  // Storage of slots [first, last) becomes inaccessible / accessible under
  // AddressSanitizer; no-ops otherwise.
  void Poison([[maybe_unused]] uint32_t first, [[maybe_unused]] uint32_t last) {
#ifdef DCC_SLOT_TABLE_ASAN
    for (uint32_t index = first; index < last; ++index) {
      ASAN_POISON_MEMORY_REGION(slots_[index].storage, kStorageBytes);
    }
#endif
  }
  void Unpoison([[maybe_unused]] uint32_t first, [[maybe_unused]] uint32_t last) {
#ifdef DCC_SLOT_TABLE_ASAN
    for (uint32_t index = first; index < last; ++index) {
      ASAN_UNPOISON_MEMORY_REGION(slots_[index].storage, kStorageBytes);
    }
#endif
  }

  std::unique_ptr<Slot[]> slots_;
  uint32_t capacity_ = 0;
  uint32_t used_ = 0;  // Slots [0, used_) have held an entry at least once.
  uint32_t free_head_ = kNoSlot;
  size_t size_ = 0;
};

}  // namespace dcc

#endif  // SRC_COMMON_SLOT_TABLE_H_
