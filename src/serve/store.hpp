// SnapshotStore: RCU-style publication of RoutingSnapshots.
//
// One writer at a time (serialized by an internal mutex) swaps in a new
// snapshot; any number of readers acquire the current one with three atomic
// operations and NO lock, NO retry-wait, and NO allocation — readers never
// block on writers, writers never block on readers. Reclamation is
// epoch-based: each registered reader owns a cache-line-private slot where it
// announces the epoch it is about to read; the writer retires the replaced
// snapshot into a history list and frees only those retired snapshots whose
// epoch is below every announced epoch.
//
// Why this is safe (the Dekker-style argument, all marked operations
// seq_cst so they are totally ordered):
//   * A reader announces an epoch `e` read from `epoch_`, THEN loads
//     `current_`. The loaded snapshot was current at the load, so its epoch
//     is >= e. It can only be freed by a collection that (a) happens after
//     the snapshot was retired, which is after the reader's load, hence
//     after the announce, and (b) observes min-announced > its epoch. The
//     reader's slot still shows e <= epoch(snapshot) until the Ref is
//     released, so (b) fails — the snapshot stays alive.
//   * TSan agrees: the reader's slot release-store (to quiescent or a newer
//     epoch) sequences after its last read of the snapshot; the writer's
//     scan load reads that store before freeing, so every free
//     happens-after every read of the freed snapshot.
//
// The read path is assertedly lock-free: see the static_asserts below —
// this is the "no lock in the read path" guarantee the serve layer's
// concurrency test (tests/test_serve.cpp) leans on under TSan.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/snapshot.hpp"

namespace meshroute::serve {

class SnapshotStore {
 public:
  /// Fixed reader capacity: registration CAS-claims a slot.
  static constexpr std::size_t kMaxReaders = 64;
  /// Slot value meaning "this reader holds no snapshot".
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  // The entire reader protocol is loads/stores on these two atomics plus the
  // per-reader slot. If either could degrade to a library lock the
  // never-block guarantee would silently vanish, so refuse to build.
  static_assert(std::atomic<const RoutingSnapshot*>::is_always_lock_free,
                "snapshot pointer swap must be a single lock-free exchange");
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "epoch announcements must be lock-free");

  /// The store is born holding `initial`; acquire() never returns null.
  explicit SnapshotStore(std::unique_ptr<const RoutingSnapshot> initial);
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Swap `snap` in as the current snapshot (its epoch must exceed the
  /// current one), retire the old snapshot, and free whatever history no
  /// reader can still hold. Returns the published epoch. Writer-side only:
  /// takes the writer mutex, never touches reader slots except to load them.
  std::uint64_t publish(std::unique_ptr<const RoutingSnapshot> snap);

  /// The currently-published snapshot, for the writer only: the writer is
  /// the one thread that retires and frees snapshots, so the reference
  /// stays valid until its own next publish().
  [[nodiscard]] const RoutingSnapshot& writer_current() const noexcept {
    return *current_.load(std::memory_order_relaxed);
  }

  /// Epoch of the currently-published snapshot.
  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Retired-but-not-yet-freed snapshots (bounded by how long readers hold
  /// Refs across publishes). Test/diagnostic hook.
  [[nodiscard]] std::size_t retired_count() const;

  /// Currently registered readers. Test/diagnostic hook.
  [[nodiscard]] std::size_t registered_readers() const noexcept;

  class Reader;

  /// RAII lease on one published snapshot. While alive, the reader's slot
  /// announces the snapshot's epoch and the snapshot cannot be freed.
  /// Movable, not copyable; at most one live Ref per Reader.
  class Ref {
   public:
    Ref(Ref&& other) noexcept : snap_(other.snap_), slot_(other.slot_) {
      other.snap_ = nullptr;
      other.slot_ = nullptr;
    }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        release();
        snap_ = other.snap_;
        slot_ = other.slot_;
        other.snap_ = nullptr;
        other.slot_ = nullptr;
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { release(); }

    [[nodiscard]] const RoutingSnapshot& operator*() const noexcept { return *snap_; }
    [[nodiscard]] const RoutingSnapshot* operator->() const noexcept { return snap_; }
    [[nodiscard]] const RoutingSnapshot* get() const noexcept { return snap_; }

   private:
    friend class Reader;
    Ref(const RoutingSnapshot* snap, std::atomic<std::uint64_t>* slot) noexcept
        : snap_(snap), slot_(slot) {}

    void release() noexcept {
      // The release-ordered quiescent store is the edge that lets the writer
      // prove our reads of *snap_ are over before freeing it.
      if (slot_ != nullptr) slot_->store(kQuiescent, std::memory_order_seq_cst);
      snap_ = nullptr;
      slot_ = nullptr;
    }

    const RoutingSnapshot* snap_;
    std::atomic<std::uint64_t>* slot_;
  };

  /// One registered reader (normally one per thread). Registration claims a
  /// slot for the Reader's lifetime; acquire() is the lock-free read path.
  class Reader {
   public:
    /// Throws std::runtime_error when all kMaxReaders slots are taken.
    explicit Reader(SnapshotStore& store);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// The lock-free read path: announce, load, validate. Retries only when
    /// a publish lands inside the three-instruction window. The returned
    /// Ref's snapshot epoch equals the announced epoch. At most one Ref may
    /// be live per Reader (the slot holds a single announcement).
    [[nodiscard]] Ref acquire() noexcept;

   private:
    SnapshotStore& store_;
    std::size_t slot_index_;
  };

 private:
  /// One cache line per reader so announcements never false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{kQuiescent};
    std::atomic<bool> claimed{false};
  };

  struct Retired {
    std::uint64_t epoch;
    const RoutingSnapshot* snap;
  };

  /// Free retired snapshots no announced epoch can still reference.
  /// Caller holds writer_mutex_.
  void collect_locked();

  std::atomic<const RoutingSnapshot*> current_;
  std::atomic<std::uint64_t> epoch_;
  std::array<Slot, kMaxReaders> slots_;
  mutable std::mutex writer_mutex_;
  std::vector<Retired> retired_;  ///< guarded by writer_mutex_
};

}  // namespace meshroute::serve
