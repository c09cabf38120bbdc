// Indexed d-ary timer heap.
//
// A 4-ary min-heap over (time, seq) with a slot index, so cancelling an
// event is a true O(log n) removal instead of the classic lazy-tombstone
// scheme. Retransmission timers are cancelled on nearly every ACK, so a
// tombstone set grows with every RTT of every flow; here a cancel physically
// removes the entry and the heap never holds more than the live event count.
// The Scheduler composes two of these, one per time tier (near and far, see
// scheduler.h); the heap itself knows nothing of tiers.
//
// Handles are (slab index, generation) pairs: firing or removing an event
// bumps its slab record's generation, so a stale handle — including a
// cancel of an already-fired event — is detected exactly and is a no-op.
// Record indexes stay below 2^31, which leaves the index's top bit spare for
// the Scheduler's tier tag.
//
// Layout notes, because this structure is the single hottest data path in
// the simulator (sifting a 100k-event heap is memory-bound, so every byte
// moved per level counts):
//   - heap slots are 16 bytes: (time, record id, daemon flag). The FIFO
//     tie-break seq lives in the record's Meta entry and is read only when
//     two times compare equal, so the common-case sift touches half the
//     bytes a (time, seq, rec) slot would;
//   - the slot array is allocated 64-byte aligned with the base offset so
//     that a node's four children (indices 4i+1..4i+4) share exactly one
//     cache line — one miss per level instead of up to two;
//   - Pop uses Floyd's hole-sinking: the root hole sinks to a leaf on
//     child-vs-child compares only (3 per level instead of 4), then the
//     displaced last element — which almost always belongs near the bottom
//     — bubbles up a step or less;
//   - the back-index is a per-record Meta array ((seq, heap pos, gen)), so
//     the per-level position writebacks during sifting stay cache-dense;
//     when a record is free, the pos word threads the free list;
//   - callbacks sit in their own chunked slab with stable addresses,
//     touched exactly once on push and once on pop/remove — never during
//     sifting, and never relocated on growth (growing a flat vector of
//     callables would re-run every move constructor through an indirect
//     call, which dominated cold-start cost in profiling). Chunks are
//     default-initialized: value-initializing would memset the whole
//     chunk's callable storage on every capacity step.
// The 4-ary fanout halves tree depth vs binary and, with the alignment
// above, costs one cache line per level. sift_levels() counts the levels
// walked, a deterministic work counter that does not drift with the host.

#ifndef SRC_SIM_EVENT_HEAP_H_
#define SRC_SIM_EVENT_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/check.h"
#include "src/sim/time.h"

namespace tfc {

template <typename Callback>
class EventHeap {
 public:
  struct Handle {
    uint32_t index = kNullIndex;
    uint32_t gen = 0;
    bool valid() const { return index != kNullIndex; }
  };

  EventHeap() = default;
  EventHeap(const EventHeap&) = delete;
  EventHeap& operator=(const EventHeap&) = delete;
  ~EventHeap() {
    // Chunks are raw storage; every record < meta_.size() holds a
    // constructed Callback (possibly empty) that must be destroyed.
    for (uint32_t rec = 0; rec < meta_.size(); ++rec) {
      CbAt(rec).~Callback();
    }
    ::operator delete(raw_, std::align_val_t{kLineBytes});
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Pending events pushed with `daemon` set.
  size_t daemon_size() const { return daemon_size_; }

  // Key of the earliest event; heap must be non-empty.
  TimeNs top_time() const { return slots_[0].time; }
  uint64_t top_seq() const { return meta_[slots_[0].rec].seq; }

  // Heap levels walked by every sift so far (hole sinking plus sift-up).
  uint64_t sift_levels() const { return sift_levels_; }

  // Inserts an event. `seq` is the FIFO tie-break for equal times and must
  // be unique and increasing across Push calls. `f` is any callable the
  // Callback type accepts; it is constructed directly in the callback slab
  // (no intermediate Callback object, no extra move). `daemon` rides in the
  // heap slot, so Pop and Remove keep daemon_size() exact.
  template <typename F>
  Handle Push(TimeNs time, uint64_t seq, F&& f, bool daemon = false) {
    uint32_t rec;
    if (free_head_ != kNullIndex) {
      rec = free_head_;
      free_head_ = meta_[rec].pos_or_next_free;
    } else {
      rec = static_cast<uint32_t>(meta_.size());
      if ((rec >> kChunkShift) == cb_chunks_.size()) {
        // Raw storage: entries are constructed lazily on first use, so a
        // new chunk costs one allocation, not an 80KB initialization sweep.
        cb_chunks_.emplace_back(new unsigned char[kChunkBytes]);
      }
      TFC_CHECK_LT(rec, kMaxRecords);
      meta_.push_back(Meta{});
      ::new (static_cast<void*>(&CbAt(rec))) Callback();
    }
    CbAt(rec).Assign(std::forward<F>(f));
    meta_[rec].seq = seq;
    if (size_ == cap_) {
      GrowSlots();
    }
    const uint32_t pos = size_++;
    daemon_size_ += daemon ? 1 : 0;
    SiftUp(pos, Slot{time, rec, daemon ? 1u : 0u});
    return Handle{rec, meta_[rec].gen};
  }

  // Removes the event named by `h` if it is still pending. Returns false
  // for invalid, already-fired, or already-removed handles.
  bool Remove(Handle h) {
    if (!h.valid() || h.index >= meta_.size() || meta_[h.index].gen != h.gen) {
      return false;
    }
    const uint32_t pos = meta_[h.index].pos_or_next_free;
    TFC_DCHECK(pos < size_ && slots_[pos].rec == h.index);
    daemon_size_ -= slots_[pos].daemon;
    CbAt(h.index) = Callback();  // destroy the callable eagerly
    FreeRecord(h.index);
    FillHole(pos);
    return true;
  }

  // Structural self-check, used by the runtime auditor and the differential
  // fuzz harness. Re-derives from scratch what the incremental operations
  // maintain: the d-ary heap property, back-index agreement for every live
  // slot, free-list integrity (no cycles, no out-of-range links), the
  // live + free = allocated record ledger, and the daemon count.
  void AuditInvariants(Auditor& audit) const {
    audit.CheckLe(size_, cap_, "size<=cap");
    uint32_t daemons = 0;
    for (uint32_t pos = 0; pos < size_; ++pos) {
      daemons += slots_[pos].daemon;
      const uint32_t rec = slots_[pos].rec;
      if (rec >= meta_.size()) {
        audit.Check(false, "slot.rec in range",
                    "pos " + std::to_string(pos) + " rec " + std::to_string(rec));
        continue;
      }
      audit.CheckEq(meta_[rec].pos_or_next_free, pos, "back-index matches slot");
      if (pos > 0) {
        const uint32_t parent = (pos - 1) / kArity;
        audit.Check(!SlotBefore(slots_[pos], slots_[parent]), "heap property",
                    "child at " + std::to_string(pos) + " precedes parent");
      }
    }
    // Walk the free list; it must terminate within the record count (a
    // longer walk means a cycle) and never point into the live heap region.
    uint32_t free_count = 0;
    uint32_t rec = free_head_;
    while (rec != kNullIndex && free_count <= meta_.size()) {
      if (rec >= meta_.size()) {
        audit.Check(false, "free-list link in range", "rec " + std::to_string(rec));
        return;
      }
      ++free_count;
      rec = meta_[rec].pos_or_next_free;
    }
    audit.CheckEq(daemons, daemon_size_, "daemon count matches flagged slots");
    audit.CheckLe(free_count, meta_.size(), "free list acyclic");
    audit.CheckEq(size_ + free_count, meta_.size(), "live+free==allocated records");
  }

  // Pops the earliest event, returning its callback and writing its time.
  Callback Pop(TimeNs* time) {
    TFC_DCHECK_GT(size_, 0u);
    const uint32_t rec = slots_[0].rec;
    *time = slots_[0].time;
    daemon_size_ -= slots_[0].daemon;
    Callback cb = std::move(CbAt(rec));  // leaves the slab entry empty
    FreeRecord(rec);
    FillHole(0);
    return cb;
  }

 private:
  static constexpr uint32_t kNullIndex = 0xffffffffu;
  static constexpr uint32_t kMaxRecords = 0x7fffffffu;  // top index bit spare
  static constexpr uint32_t kArity = 4;
  static constexpr size_t kLineBytes = 64;
  static constexpr uint32_t kChunkShift = 10;  // 1024 callbacks per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;
  static constexpr size_t kChunkBytes = size_t{kChunkSize} * sizeof(Callback);

  struct Slot {
    TimeNs time;
    uint32_t rec;
    uint32_t daemon;  // 1 for a daemon event, else 0
  };
  static_assert(sizeof(Slot) == 16 && std::is_trivially_copyable_v<Slot>);

  // Back-index entry. `pos_or_next_free` is the heap position while the
  // record is live and the free-list link while it is free; the generation
  // disambiguates the two states for stale handles. `seq` is the FIFO
  // tie-break, kept here (not in the heap slot) because it is only read on
  // equal-time compares.
  struct Meta {
    uint64_t seq;
    uint32_t pos_or_next_free;
    uint32_t gen;
  };

  Callback& CbAt(uint32_t rec) {
    unsigned char* chunk = cb_chunks_[rec >> kChunkShift].get();
    return *reinterpret_cast<Callback*>(
        chunk + size_t{rec & kChunkMask} * sizeof(Callback));
  }

  bool SlotBefore(const Slot& a, const Slot& b) const {
    return a.time != b.time ? a.time < b.time
                            : meta_[a.rec].seq < meta_[b.rec].seq;
  }

  void FreeRecord(uint32_t rec) {
    Meta& m = meta_[rec];
    ++m.gen;
    m.pos_or_next_free = free_head_;
    free_head_ = rec;
  }

  // Grows the slot array, keeping `slots_` offset inside the 64B-aligned
  // allocation so child groups (4i+1..4i+4, 16 bytes each) start on cache
  // lines. Slots are trivially copyable, so growth is a single memcpy.
  void GrowSlots() {
    const uint32_t new_cap = cap_ != 0 ? cap_ * 2 : 256;
    void* raw = ::operator new(
        static_cast<size_t>(new_cap) * sizeof(Slot) + kLineBytes,
        std::align_val_t{kLineBytes});
    Slot* slots = reinterpret_cast<Slot*>(static_cast<unsigned char*>(raw) +
                                          (kLineBytes - sizeof(Slot)));
    if (size_ != 0) {
      std::memcpy(slots, slots_, static_cast<size_t>(size_) * sizeof(Slot));
    }
    ::operator delete(raw_, std::align_val_t{kLineBytes});
    raw_ = raw;
    slots_ = slots;
    cap_ = new_cap;
  }

  // Removes the element at `pos`: Floyd's hole-sinking. The hole sinks to a
  // leaf along the min-child path (child-vs-child compares only), then the
  // displaced last element bubbles up from the leaf. Works for the root
  // (Pop) and interior holes (Remove) alike — sift-up is globally valid, so
  // no restore-direction bookkeeping is needed.
  void FillHole(uint32_t pos) {
    --size_;
    if (pos == size_) {
      return;  // the hole was the last element
    }
    uint64_t levels = 0;  // local, so the loop's stores cannot alias it
    for (;;) {
      const uint32_t first_child = pos * kArity + 1;
      if (first_child >= size_) {
        break;
      }
      const uint32_t end = std::min(first_child + kArity, size_);
      uint32_t best = first_child;
      for (uint32_t c = first_child + 1; c < end; ++c) {
        if (SlotBefore(slots_[c], slots_[best])) {
          best = c;
        }
      }
      slots_[pos] = slots_[best];
      meta_[slots_[pos].rec].pos_or_next_free = pos;
      pos = best;
      ++levels;
    }
    sift_levels_ += levels;
    SiftUp(pos, slots_[size_]);
  }

  // Bubbles `moving` up from `pos` and writes it (and its back-index) into
  // its final position.
  void SiftUp(uint32_t pos, Slot moving) {
    const TimeNs t = moving.time;
    const uint64_t s = meta_[moving.rec].seq;
    uint64_t levels = 0;
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / kArity;
      const Slot& p = slots_[parent];
      const bool less = t != p.time ? t < p.time : s < meta_[p.rec].seq;
      if (!less) {
        break;
      }
      slots_[pos] = p;
      meta_[slots_[pos].rec].pos_or_next_free = pos;
      pos = parent;
      ++levels;
    }
    sift_levels_ += levels;
    slots_[pos] = moving;
    meta_[moving.rec].pos_or_next_free = pos;
  }

  // 16-byte slots in a 64B-aligned buffer; element 1 starts a cache line,
  // so each 4-child group occupies exactly one line.
  Slot* slots_ = nullptr;
  void* raw_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
  uint32_t daemon_size_ = 0;
  uint64_t sift_levels_ = 0;
  std::vector<Meta> meta_;  // record -> (seq, heap position / free link, gen)
  // record -> callable, in address-stable raw-storage chunks; untouched by
  // sifting. Alignment: operator new[] returns max_align_t-aligned memory
  // and sizeof(Callback) is a multiple of its alignment.
  std::vector<std::unique_ptr<unsigned char[]>> cb_chunks_;
  uint32_t free_head_ = kNullIndex;
};

}  // namespace tfc

#endif  // SRC_SIM_EVENT_HEAP_H_
