//===- ResultCache.h - The persistent check-result cache --------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// kissd's result cache: canonical request key (config::cacheKey plus the
/// program name) to deterministic result core.
///
/// Clients send the same program many times — one race check per field,
/// under several names and configs — so the cache stores keys in two
/// levels. A key splits at its first config::SourceMarker into a head
/// (name and config lines) and a source tail (the marker to the end); the
/// tail maps to a table from head to core. Each distinct source is thus
/// stored once, and an entry costs its head and its core. Head + tail is
/// the whole key and both levels compare full strings (hash-then-verify),
/// so equal results require equal requests and a hash collision can never
/// replay the wrong verdict — also when a name or a source contains the
/// marker, or a key has none.
///
/// The cache is optionally persistent: load() reads a snapshot written by
/// a previous daemon, save() writes one atomically (temp file + rename).
/// The snapshot is a length-prefixed stream of whole-key records behind a
/// version header, written and read one record at a time; loading is
/// truncation-tolerant, so a daemon killed mid-save at worst loses the
/// tail of the cache, never the ability to start.
///
/// Thread-safe: workers and connection threads share one instance behind
/// a single mutex (entries are small and lookups are rare relative to
/// check work, so sharding the map is not worth the complexity).
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SERVICE_RESULTCACHE_H
#define KISS_SERVICE_RESULTCACHE_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace kiss::service {

class ResultCache {
public:
  /// Looks up \p Key, copying the cached core into \p Value and, if
  /// \p Code is given, its exit code into *Code on a hit. Counts the probe
  /// as a hit or miss. The code is stored with the entry; it is -1 for a
  /// core without a usable "code" member (a corrupt snapshot entry), which
  /// callers answer as a miss.
  bool lookup(std::string_view Key, std::string &Value, int *Code = nullptr);

  /// Inserts (or overwrites — same key means same bytes) one entry: a
  /// core and the exit code it carries.
  void insert(std::string_view Key, std::string Value, int Code);
  /// Inserts a core whose exit code is read from its "code" member, as
  /// load() reads every snapshot record.
  void insert(std::string_view Key, std::string Value);

  /// Loads a snapshot file over the current contents. A missing file is
  /// success (a fresh daemon); a malformed header is an error; a
  /// truncated record stream keeps every complete record read so far.
  bool load(const std::string &Path, std::string &Error);

  /// Writes the snapshot atomically: \p Path + ".tmp", then rename.
  bool save(const std::string &Path, std::string &Error) const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t size() const;
  /// Stored bytes: each distinct source once, plus every entry's head
  /// and core.
  uint64_t bytes() const;
  /// Distinct sources stored.
  uint64_t sources() const;

private:
  /// Hashes std::string and std::string_view alike, so a lookup by view
  /// allocates nothing. Deliberately not noexcept: libstdc++ then keeps
  /// each node's hash, and a probe never rehashes a stored source.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

  /// One cached result: the core bytes and the exit code they carry.
  struct Entry {
    std::string Core;
    int Code;
  };

  void insertLocked(std::string_view Key, std::string Value, int Code);

  mutable std::mutex Mu;
  /// Source tail -> key head -> entry.
  StringMap<StringMap<Entry>> Map;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace kiss::service

#endif // KISS_SERVICE_RESULTCACHE_H
