//===- StateStore.h - Compact visited-state store ---------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The visited set of the explicit-state engines. Encoded states are
/// appended to one contiguous byte arena and deduplicated through an
/// open-addressing index of (hash64, state id) entries. A hash hit is
/// always confirmed by comparing the full encoded key, so two distinct
/// states can never be conflated — the paper's no-false-errors guarantee
/// does not rest on 64 bits of fingerprint.
///
/// Two storage modes (rt::StoreMode):
///  * Flat: every state keeps its full encoding in the arena (fastest).
///  * Delta: a state whose BFS parent is known stores only a byte diff
///    against that parent, with periodic full keyframes bounding every
///    reconstruction chain. BFS parents and children differ in a handful
///    of bytes (a PC and one or two values), so the arena typically
///    shrinks by well over 2x on deep state spaces.
///
/// key() returns a KeyRef, a checked view that is invalidated by the next
/// intern() (the arena may reallocate) and — in delta mode — by the next
/// key() call (reconstruction shares one scratch buffer). Debug builds
/// carry a store generation counter in each KeyRef and assert on stale
/// access, so misuse traps deterministically instead of reading freed or
/// overwritten memory.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_STATESTORE_H
#define KISS_SEQCHECK_STATESTORE_H

#include "seqcheck/CommonOptions.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kiss::seqcheck {

class StateStore {
public:
  /// Sentinel id: never returned by intern(); used for "no parent" links.
  static constexpr uint32_t InvalidId = 0xffffffffu;

  explicit StateStore(rt::StoreMode Mode = rt::StoreMode::Flat);

  /// Empties the store and switches it to \p Mode, keeping the capacity
  /// of the arena, the record table and both slot tables. The index starts
  /// again at its initial size and grows on the same schedule, so ids,
  /// IndexStats, arenaBytes() and indexBytes() evolve exactly as in a
  /// freshly constructed store: only the allocations are saved.
  void reset(rt::StoreMode Mode);

  /// Bytes of heap capacity the store holds, used or not (what keeping
  /// it between runs costs).
  size_t capacityBytes() const;

  /// Interns encoded state \p Key under keyHash(Key). \returns the
  /// state's dense id (ids are assigned 0, 1, 2, ... in first-seen order)
  /// and whether the key was newly inserted. The bytes are copied; \p Key
  /// may be a reused scratch buffer. In delta mode a state interned
  /// without a parent stores a full keyframe.
  std::pair<uint32_t, bool> intern(std::string_view Key);

  /// As intern() with a caller-supplied 64-bit hash, which must be a
  /// function of \p Key alone: two equal keys interned under different
  /// hashes become two states. Tests use it to force distinct keys into
  /// one index bucket.
  std::pair<uint32_t, bool> intern(std::string_view Key, uint64_t Hash);

  /// As intern(Key, Hash), additionally naming the BFS parent the state
  /// was expanded from. The engines intern every successor here with
  /// \p Hash == keyHash(Key), which the threaded engine maintains through
  /// its in-place key patches instead of rehashing the whole key. In delta
  /// mode a newly inserted state is stored as a diff against \p Parent
  /// (unless a keyframe is due); in flat mode the parent is ignored.
  /// \p Parent may be InvalidId (root states).
  std::pair<uint32_t, bool> internChild(std::string_view Key,
                                        uint32_t Parent, uint64_t Hash);

  /// Number of distinct states interned.
  size_t size() const { return Records.size(); }

  /// Monotonic mutation counter: bumped by every intern() and by every
  /// delta-mode key() reconstruction. A KeyRef taken at generation G is
  /// valid only while generation() == G.
  uint64_t generation() const { return Generation; }

  /// A checked view of one interned key. Valid until the next intern()
  /// (and, in delta mode, until the next key() call); debug builds assert
  /// on stale access.
  class KeyRef {
  public:
    KeyRef() = default;

    std::string_view view() const {
#ifndef NDEBUG
      assert(Store && Gen == Store->generation() &&
             "stale StateStore::key() view: invalidated by a later "
             "intern() or key() call");
#endif
      return V;
    }
    const char *data() const { return view().data(); }
    size_t size() const { return view().size(); }
    operator std::string_view() const { return view(); }

  private:
    friend class StateStore;
    std::string_view V;
#ifndef NDEBUG
    const StateStore *Store = nullptr;
    uint64_t Gen = 0;
#endif
  };

  /// The encoded bytes of state \p Id.
  KeyRef key(uint32_t Id) const;

  /// The storage mode this store was created with.
  rt::StoreMode mode() const { return Mode; }

  /// Bytes held by the encoding arena (diagnostics/benchmarks). In delta
  /// mode this is the *compressed* footprint.
  size_t arenaBytes() const { return Arena.size(); }

  /// Bytes held by the hash index and the record table (the store's
  /// non-arena footprint).
  size_t indexBytes() const {
    return Slots.size() * sizeof(Slot) + Records.size() * sizeof(Record);
  }

  /// Total accounted bytes (arena + index): what a gov::RunBudget memory
  /// budget measures and what ExplorationStats reports.
  size_t memoryBytes() const { return arenaBytes() + indexBytes(); }

  /// Index-traffic counters, maintained by intern() (grow()'s rehash
  /// probes are not counted). Feeds rt::ExplorationStats.
  struct IndexStats {
    uint64_t Hits = 0;       ///< intern() found the key already present.
    uint64_t Probes = 0;     ///< Occupied slots inspected.
    uint64_t Verifies = 0;   ///< Full-key comparisons after a hash match.
    uint64_t Collisions = 0; ///< Comparisons that failed: true 64-bit
                             ///< collisions between distinct keys.
  };
  const IndexStats &indexStats() const { return Stats; }

private:
  struct Record {
    uint64_t Offset;   ///< Start of the stored bytes in Arena.
    uint32_t Stored;   ///< Bytes stored (== KeyLen for full keys).
    uint32_t KeyLen;   ///< Length of the (reconstructed) key.
    uint32_t Parent;   ///< Delta base id; InvalidId = full keyframe.
    uint32_t Depth;    ///< Delta-chain depth (keyframe = 0).
  };
  struct Slot {
    uint64_t Hash;
    uint32_t Id; ///< InvalidId = empty slot.
  };

  std::pair<uint32_t, bool> internImpl(std::string_view Key, uint64_t Hash,
                                       uint32_t Parent);
  void grow();

  /// The raw bytes of state \p Id, reconstructing through the delta chain
  /// if needed. The view is valid until the next intern() or
  /// materialize() call.
  std::string_view materialize(uint32_t Id) const;

  KeyRef makeRef(std::string_view V) const {
    KeyRef R;
    R.V = V;
#ifndef NDEBUG
    R.Store = this;
    R.Gen = Generation;
#endif
    return R;
  }

  rt::StoreMode Mode = rt::StoreMode::Flat;
  /// A string rather than vector<char>: append(ptr, n) is a plain
  /// capacity-checked memcpy, where vector's range insert went through the
  /// generic path and cost more than the hash + probe combined.
  std::string Arena;
  std::vector<Record> Records;
  std::vector<Slot> Slots; ///< Size is always a power of two.
  /// grow()'s rehash source: a copy of the outgrown table, kept so a
  /// reused store regrows without allocating.
  std::vector<Slot> Spare;
  IndexStats Stats;
  mutable uint64_t Generation = 0;
  /// Delta-mode reconstruction scratch (ping-pong) and a one-entry cache
  /// of the last materialized state — BFS materializes parents in nearly
  /// sequential order, so the cache hit rate is high.
  mutable std::string MatBuf, MatTmp;
  mutable uint32_t MatId = InvalidId;
  /// Scratch for building a candidate delta before committing it.
  std::vector<char> DeltaBuf;
};

} // namespace kiss::seqcheck

#endif // KISS_SEQCHECK_STATESTORE_H
