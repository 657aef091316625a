//===- Hashing.h - Stable hash combinators ----------------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable hashes. FNV-1a (StableHasher, stableHash) is deterministic across
/// runs and hosts (unlike std::hash for some types): bebop's path-edge
/// index hashes by it. keyHash is the visited-set hash of the
/// explicit-state engines, built so that a patched key is rehashed in
/// O(patched words).
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SUPPORT_HASHING_H
#define KISS_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace kiss {

/// Incremental FNV-1a 64-bit hasher.
class StableHasher {
public:
  void addByte(uint8_t Byte) {
    State ^= Byte;
    State *= 0x100000001b3ull;
  }

  void addU32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      addByte((V >> (8 * I)) & 0xff);
  }

  void addU64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      addByte((V >> (8 * I)) & 0xff);
  }

  void addBytes(std::string_view Bytes) {
    for (char C : Bytes)
      addByte(static_cast<uint8_t>(C));
  }

  uint64_t finish() const { return State; }

private:
  uint64_t State = 0xcbf29ce484222325ull;
};

/// One-shot convenience for hashing a byte string.
inline uint64_t stableHash(std::string_view Bytes) {
  StableHasher H;
  H.addBytes(Bytes);
  return H.finish();
}

//===--- The key hash ---===//
//
// The visited-set hash: H = finish(sum of keyWordMix(i, w_i), length) over
// the key's 8-byte words w_0, w_1, ..., the last one zero-padded. Each
// word contributes independently of the others, so rewriting bytes of a
// key updates the sum in O(touched words): subtract the old words' mixes,
// write, add the new ones. Deterministic within a process, which is all
// state deduplication needs; quality is backed by full-key verification
// at every use site. Words are loaded native-endian, like the fields of
// the canonical state encoding itself.

/// Word \p I of a key of \p Size bytes at \p Data, zero-padded past the
/// end. Every load is a fixed 8 bytes (a partial last word is the tail of
/// the last 8 bytes, shifted down), so none becomes a libc call; only keys
/// shorter than one word copy less.
inline uint64_t loadKeyWord(const char *Data, size_t Size, size_t I) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "the shifted tail load assumes little-endian words");
  uint64_t W = 0;
  const size_t Off = I * 8;
  if (Off + 8 <= Size) {
    __builtin_memcpy(&W, Data + Off, 8);
    return W;
  }
  if (Size < 8) {
    __builtin_memcpy(&W, Data, Size);
    return W;
  }
  __builtin_memcpy(&W, Data + Size - 8, 8);
  return W >> (64 - 8 * (Size - Off)); // Size - Off: 1..7 live bytes.
}

/// Word \p W's contribution at word position \p I: the folded 128-bit
/// product of the position-keyed word and an odd constant.
inline uint64_t keyWordMix(size_t I, uint64_t W) {
  const __uint128_t P =
      __uint128_t(W ^ (uint64_t(I) * 0x9e3779b97f4a7c15ull +
                       0xa0761d6478bd642full)) *
      0xe7037ed1a0b428dbull;
  return uint64_t(P) ^ uint64_t(P >> 64);
}

/// Sum of keyWordMix over the words of \p Key from word \p First on. The
/// main loop takes two full words per iteration into two sums, which lets
/// their multiplies overlap: ~25% faster than one word at a time on a
/// ~1.1 KB key.
inline uint64_t keyWordSum(std::string_view Key, size_t First = 0) {
  const char *P = Key.data();
  const size_t N = Key.size();
  uint64_t Sum = 0, Odd = 0;
  size_t I = First;
  for (; I * 8 + 16 <= N; I += 2) {
    uint64_t W[2];
    __builtin_memcpy(W, P + I * 8, 16);
    Sum += keyWordMix(I, W[0]);
    Odd += keyWordMix(I + 1, W[1]);
  }
  for (; I * 8 < N; ++I)
    Sum += keyWordMix(I, loadKeyWord(P, N, I));
  return Sum + Odd;
}

/// The key hash of a key of \p Size bytes whose word sum is \p Sum. The
/// length separates keys that differ only by trailing zero bytes; the
/// final mixing spreads every bit of the sum into the low bits that pick
/// an index slot.
inline uint64_t keyHashFinish(uint64_t Sum, size_t Size) {
  uint64_t H = Sum ^ (uint64_t(Size) * 0x9ddfea08eb382d69ull);
  H ^= H >> 32;
  H *= 0x9ddfea08eb382d69ull;
  H ^= H >> 29;
  H *= 0xbf58476d1ce4e5b9ull;
  H ^= H >> 32;
  return H;
}

/// The key hash of \p Key, computed over every word.
inline uint64_t keyHash(std::string_view Key) {
  return keyHashFinish(keyWordSum(Key), Key.size());
}

} // namespace kiss

#endif // KISS_SUPPORT_HASHING_H
