//===- ResultCache.cpp - The persistent check-result cache ----------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "service/ResultCache.h"

#include "kiss/Config.h"
#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

using namespace kiss::service;

namespace {

/// Snapshot header. The version is part of the text: a snapshot in an
/// incompatible later format simply fails the header check and the
/// daemon starts cold instead of misreading records.
constexpr char Magic[] = "kissd-cache v1\n";
constexpr size_t MagicLen = sizeof(Magic) - 1;

void writeU32(std::ostream &Out, uint32_t V) {
  const char Bytes[4] = {static_cast<char>(V), static_cast<char>(V >> 8),
                         static_cast<char>(V >> 16),
                         static_cast<char>(V >> 24)};
  Out.write(Bytes, 4);
}

uint32_t readU32(const char *P) {
  return static_cast<uint32_t>(static_cast<unsigned char>(P[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(P[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(P[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(P[3])) << 24;
}

/// Splits \p Key into its head and its source tail, which starts at the
/// first SourceMarker (a key without one is all head). Head + tail is the
/// key, so equal keys split alike and different keys differ in a part.
std::pair<std::string_view, std::string_view> splitKey(std::string_view Key) {
  size_t At = Key.find(kiss::config::SourceMarker);
  if (At == std::string_view::npos)
    At = Key.size();
  return {Key.substr(0, At), Key.substr(At)};
}

/// The "code" member of a result core (0..3), or -1 if the bytes do not
/// parse or carry none.
int parseCoreCode(std::string_view Core) {
  kiss::json::Value V;
  std::string Error;
  if (!kiss::json::parse(Core, "cache", V, Error) || !V.isObject())
    return -1;
  const kiss::json::Value *C = V.find("code");
  uint64_t N = 0;
  if (!C || !C->asU64(N) || N > 3)
    return -1;
  return static_cast<int>(N);
}

} // namespace

bool ResultCache::lookup(std::string_view Key, std::string &Value,
                         int *Code) {
  auto [Head, Tail] = splitKey(Key);
  std::lock_guard<std::mutex> Lock(Mu);
  if (auto S = Map.find(Tail); S != Map.end()) {
    if (auto E = S->second.find(Head); E != S->second.end()) {
      ++Hits;
      Value = E->second.Core;
      if (Code)
        *Code = E->second.Code;
      return true;
    }
  }
  ++Misses;
  return false;
}

void ResultCache::insert(std::string_view Key, std::string Value, int Code) {
  std::lock_guard<std::mutex> Lock(Mu);
  insertLocked(Key, std::move(Value), Code);
}

void ResultCache::insert(std::string_view Key, std::string Value) {
  int Code = parseCoreCode(Value);
  insert(Key, std::move(Value), Code);
}

void ResultCache::insertLocked(std::string_view Key, std::string Value,
                               int Code) {
  auto [Head, Tail] = splitKey(Key);
  auto S = Map.find(Tail);
  if (S == Map.end()) {
    S = Map.emplace(std::string(Tail), StringMap<Entry>()).first;
    Bytes += Tail.size();
  }
  Bytes += Value.size();
  if (auto E = S->second.find(Head); E != S->second.end()) {
    Bytes -= E->second.Core.size();
    E->second = {std::move(Value), Code};
    return;
  }
  S->second.emplace(std::string(Head), Entry{std::move(Value), Code});
  Bytes += Head.size();
  ++Entries;
}

bool ResultCache::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return true; // No snapshot yet: a fresh daemon.
  // The file size bounds every record length before anything is
  // allocated, so a corrupt length cannot ask for gigabytes.
  std::streamoff Size = In.tellg();
  In.seekg(0);
  char Header[MagicLen];
  if (Size < 0 || !In.read(Header, MagicLen) ||
      std::memcmp(Header, Magic, MagicLen)) {
    Error = Size < 0 || In.bad() ? Path + ": read failed"
                                 : Path + ": not a kissd cache snapshot";
    return false;
  }
  uint64_t Left = static_cast<uint64_t>(Size) - MagicLen;
  std::lock_guard<std::mutex> Lock(Mu);
  // Each record: [u32 key length][u32 value length][key][value]. Stop at
  // the first incomplete record — a mid-save kill loses only the tail.
  std::string Key, Value;
  char Lens[8];
  while (Left >= 8 && In.read(Lens, 8)) {
    uint64_t KLen = readU32(Lens), VLen = readU32(Lens + 4);
    if (KLen + VLen > Left - 8)
      break;
    Key.resize(KLen);
    Value.resize(VLen);
    if (!In.read(Key.data(), static_cast<std::streamsize>(KLen)) ||
        !In.read(Value.data(), static_cast<std::streamsize>(VLen)))
      break;
    Left -= 8 + KLen + VLen;
    int Code = parseCoreCode(Value);
    insertLocked(Key, std::move(Value), Code);
    Value.clear();
  }
  if (In.bad()) {
    Error = Path + ": read failed";
    return false;
  }
  return true;
}

bool ResultCache::save(const std::string &Path, std::string &Error) const {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    // Records go straight to the file; each key is re-joined from its
    // head and source tail as it is written, never held whole.
    std::lock_guard<std::mutex> Lock(Mu);
    Out.write(Magic, MagicLen);
    for (const auto &[Tail, Heads] : Map)
      for (const auto &[Head, E] : Heads) {
        writeU32(Out, static_cast<uint32_t>(Head.size() + Tail.size()));
        writeU32(Out, static_cast<uint32_t>(E.Core.size()));
        Out.write(Head.data(), static_cast<std::streamsize>(Head.size()));
        Out.write(Tail.data(), static_cast<std::streamsize>(Tail.size()));
        Out.write(E.Core.data(), static_cast<std::streamsize>(E.Core.size()));
      }
    if (!Out.flush()) {
      Error = Tmp + ": write failed";
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = Path + ": rename failed";
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Hits;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Misses;
}

uint64_t ResultCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries;
}

uint64_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Bytes;
}

uint64_t ResultCache::sources() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}
