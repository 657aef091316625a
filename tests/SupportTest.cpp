//===- SupportTest.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"
#include "support/Diagnostics.h"
#include "support/Hashing.h"
#include "support/SourceManager.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace kiss;

namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable T;
  Symbol A = T.intern("foo");
  Symbol B = T.intern("foo");
  Symbol C = T.intern("bar");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(T.str(A), "foo");
  EXPECT_EQ(T.str(C), "bar");
  EXPECT_EQ(T.size(), 2u);
}

TEST(SymbolTableTest, LookupWithoutInterning) {
  SymbolTable T;
  EXPECT_FALSE(T.lookup("missing").isValid());
  Symbol A = T.intern("present");
  EXPECT_EQ(T.lookup("present"), A);
  EXPECT_EQ(T.size(), 1u);
}

TEST(SymbolTableTest, InvalidSymbolRendering) {
  SymbolTable T;
  EXPECT_EQ(T.str(Symbol()), "<invalid>");
}

TEST(SymbolTableTest, ManySymbolsStayStable) {
  SymbolTable T;
  std::vector<Symbol> Syms;
  for (int I = 0; I < 1000; ++I)
    Syms.push_back(T.intern("sym" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I) {
    EXPECT_EQ(T.str(Syms[I]), "sym" + std::to_string(I));
    EXPECT_EQ(T.lookup("sym" + std::to_string(I)), Syms[I]);
  }
}

TEST(SymbolTableTest, TenThousandNamesKeepIdsAndSpellings) {
  SymbolTable T;
  for (uint32_t I = 0; I != 10000; ++I)
    ASSERT_EQ(T.intern("name_" + std::to_string(I)).getIndex(), I);
  EXPECT_EQ(T.size(), 10000u);
  for (uint32_t I = 0; I != 10000; ++I) {
    std::string Name = "name_" + std::to_string(I);
    Symbol S = T.lookup(Name);
    ASSERT_TRUE(S.isValid()) << Name;
    EXPECT_EQ(S.getIndex(), I);
    EXPECT_EQ(T.str(S), Name);
    EXPECT_EQ(T.intern(Name), S);
  }
  EXPECT_EQ(T.size(), 10000u);
}

TEST(SymbolTableTest, LookupOfMissingNameFindsNothing) {
  SymbolTable T;
  for (int I = 0; I != 3000; ++I)
    T.intern("v" + std::to_string(I));
  EXPECT_FALSE(T.lookup("v3000").isValid());
  EXPECT_FALSE(T.lookup("").isValid());
  EXPECT_FALSE(T.lookup("v").isValid());
  EXPECT_EQ(T.size(), 3000u);
}

TEST(SymbolTableTest, NameLongerThanAStorageBlockInterns) {
  SymbolTable T;
  Symbol Short = T.intern("short");
  std::string Long(3 * SymbolTable::BlockBytes + 7, 'q');
  Long.back() = 'z';
  Symbol L = T.intern(Long);
  Symbol After = T.intern("after");
  EXPECT_EQ(T.str(L), Long);
  EXPECT_EQ(T.lookup(Long), L);
  EXPECT_EQ(T.intern(Long), L);
  EXPECT_EQ(T.str(Short), "short");
  EXPECT_EQ(T.str(After), "after");
  EXPECT_EQ(T.size(), 3u);
}

TEST(SymbolTableTest, ViewTakenBeforeGrowthStaysValid) {
  SymbolTable T;
  std::string_view First = T.str(T.intern("first"));
  const char *Data = First.data();
  for (int I = 0; I != 10000; ++I)
    T.intern("grow" + std::to_string(I));
  EXPECT_EQ(First, "first");
  EXPECT_EQ(T.str(T.lookup("first")).data(), Data);
}

TEST(SourceManagerTest, LineAndColumnResolution) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("f.kiss", "abc\ndef\n\nghi");
  EXPECT_EQ(SM.getBufferName(Id), "f.kiss");

  PresumedLoc P = SM.getPresumedLoc(SourceLoc(Id, 0));
  EXPECT_EQ(P.Line, 1u);
  EXPECT_EQ(P.Column, 1u);

  P = SM.getPresumedLoc(SourceLoc(Id, 5)); // 'e'
  EXPECT_EQ(P.Line, 2u);
  EXPECT_EQ(P.Column, 2u);

  P = SM.getPresumedLoc(SourceLoc(Id, 8)); // empty line
  EXPECT_EQ(P.Line, 3u);
  EXPECT_EQ(P.Column, 1u);

  P = SM.getPresumedLoc(SourceLoc(Id, 9)); // 'g'
  EXPECT_EQ(P.Line, 4u);
  EXPECT_EQ(P.Column, 1u);
}

TEST(SourceManagerTest, LineTextExtraction) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("f", "first\nsecond\nthird");
  EXPECT_EQ(SM.getLineText(SourceLoc(Id, 7)), "second");
  EXPECT_EQ(SM.getLineText(SourceLoc(Id, 0)), "first");
  EXPECT_EQ(SM.getLineText(SourceLoc(Id, 14)), "third");
}

TEST(SourceManagerTest, InvalidLocationsHandled) {
  SourceManager SM;
  EXPECT_FALSE(SM.getPresumedLoc(SourceLoc()).isValid());
  EXPECT_TRUE(SM.getLineText(SourceLoc()).empty());
}

TEST(SourceManagerTest, MultipleBuffers) {
  SourceManager SM;
  uint32_t A = SM.addBuffer("a", "aaa");
  uint32_t B = SM.addBuffer("b", "bbb");
  EXPECT_NE(A, B);
  EXPECT_EQ(SM.getBufferText(A), "aaa");
  EXPECT_EQ(SM.getBufferText(B), "bbb");
}

TEST(DiagnosticsTest, ErrorCountingAndSeverities) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(), "w");
  D.note(SourceLoc(), "n");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(), "e1");
  D.error(SourceLoc(), "e2");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.getNumErrors(), 2u);
  EXPECT_EQ(D.getDiagnostics().size(), 4u);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.getDiagnostics().empty());
}

TEST(DiagnosticsTest, RenderWithCaret) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("t.kiss", "int x = wrong;\n");
  DiagnosticEngine D;
  D.error(SourceLoc(Id, 8), "unknown identifier");
  std::string Out = D.render(SM);
  EXPECT_NE(Out.find("t.kiss:1:9: error: unknown identifier"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("int x = wrong;"), std::string::npos);
  EXPECT_NE(Out.find("^"), std::string::npos);
}

TEST(HashingTest, DeterministicAndSensitive) {
  EXPECT_EQ(stableHash("hello"), stableHash("hello"));
  EXPECT_NE(stableHash("hello"), stableHash("hellp"));
  EXPECT_NE(stableHash(""), stableHash(std::string_view("\0", 1)));

  StableHasher A, B;
  A.addU32(1);
  A.addU64(2);
  B.addU32(1);
  B.addU64(2);
  EXPECT_EQ(A.finish(), B.finish());
  B.addByte(0);
  EXPECT_NE(A.finish(), B.finish());
}

//===----------------------------------------------------------------------===//
// The visited-set key hash (keyHash and its word-sum update)
//===----------------------------------------------------------------------===//

/// A key and its running word sum, updated the way the threaded engine
/// updates its patch buffer: a patch rehashes only the words it touches,
/// an append or a truncation rehashes the tail from its first byte.
struct PatchedKey {
  std::string Key;
  uint64_t Sum = 0;

  uint64_t wordMix(size_t I) const {
    return keyWordMix(I, loadKeyWord(Key.data(), Key.size(), I));
  }

  void patch(size_t Off, const std::string &Bytes) {
    const size_t First = Off / 8, Last = (Off + Bytes.size() - 1) / 8;
    for (size_t I = First; I <= Last; ++I)
      Sum -= wordMix(I);
    Key.replace(Off, Bytes.size(), Bytes);
    for (size_t I = First; I <= Last; ++I)
      Sum += wordMix(I);
  }

  void resize(size_t Size, const std::string &Fill) {
    const size_t From = std::min(Size, Key.size());
    Sum -= keyWordSum(Key, From / 8);
    Key.resize(From);
    Key += Fill.substr(0, Size - From);
    Sum += keyWordSum(Key, From / 8);
  }

  uint64_t hash() const { return keyHashFinish(Sum, Key.size()); }
};

std::string randomBytes(std::mt19937_64 &Rng, size_t N) {
  std::string S(N, '\0');
  for (char &C : S)
    C = static_cast<char>(Rng() % 4 == 0 ? 0 : Rng()); // Zero-heavy.
  return S;
}

TEST(KeyHashTest, PatchedSumMatchesFullHash) {
  std::mt19937_64 Rng(2004);
  for (unsigned Case = 0; Case != 200; ++Case) {
    PatchedKey K;
    K.Key = randomBytes(Rng, Rng() % 301);
    K.Sum = keyWordSum(K.Key);
    ASSERT_EQ(K.hash(), keyHash(K.Key)) << "case " << Case;
    for (unsigned Step = 0; Step != 50; ++Step) {
      const unsigned Kind = Rng() % 4;
      if (Kind < 2 && !K.Key.empty()) {
        const size_t N = 1 + Rng() % std::min<size_t>(14, K.Key.size());
        K.patch(Rng() % (K.Key.size() - N + 1), randomBytes(Rng, N));
      } else if (Kind == 2 && K.Key.size() < 300) {
        const size_t N = 1 + Rng() % (300 - K.Key.size());
        K.resize(K.Key.size() + N, randomBytes(Rng, N));
      } else if (!K.Key.empty()) {
        K.resize(Rng() % K.Key.size(), "");
      }
      ASSERT_EQ(K.hash(), keyHash(K.Key))
          << "case " << Case << " step " << Step << ": " << K.Key.size()
          << "-byte key";
    }
  }
}

TEST(KeyHashTest, TrailingZeroBytesChangeTheHash) {
  std::mt19937_64 Rng(17);
  for (size_t Len = 0; Len != 40; ++Len) {
    std::string Key = randomBytes(Rng, Len);
    const uint64_t H = keyHash(Key);
    // The appended zeros only fill the zero padding or add zero words, so
    // the length alone must tell the keys apart.
    for (size_t Zeros = 1; Zeros != 17; ++Zeros)
      EXPECT_NE(keyHash(Key + std::string(Zeros, '\0')), H)
          << Len << "-byte key plus " << Zeros << " zero bytes";
  }
}

TEST(KeyHashTest, WordPositionMatters) {
  // Additive over words, so swapping two words must still change the sum.
  std::string A(16, '\0'), B(16, '\0');
  A[0] = 1;
  B[8] = 1;
  EXPECT_NE(keyHash(A), keyHash(B));
  EXPECT_NE(keyHash("abcdefgh12345678"), keyHash("12345678abcdefgh"));
}

//===----------------------------------------------------------------------===//
// The shared CLI flag table (support/Cli.h)
//===----------------------------------------------------------------------===//

/// Runs \p P over \p Args (argv[0] is synthesized).
bool parseArgs(cli::ArgParser &P, std::vector<std::string> Args) {
  std::vector<char *> Argv;
  std::string Tool = "tool";
  Argv.push_back(Tool.data());
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return P.parse(static_cast<int>(Argv.size()), Argv.data());
}

struct ToolFlags {
  unsigned Jobs = 0;
  uint64_t MemoryMB = 0;
  double TimeoutSec = 0;
  std::string Report;
  bool ZeroTimings = false;
  std::string Engine = "kiss";
  std::string Input;
};

cli::ArgParser makeToolParser(ToolFlags &F) {
  cli::ArgParser P("usage: tool [options] <file.kiss>");
  P.flag("jobs", F.Jobs, "<n>", "worker threads (0 = all cores)");
  P.flagPositive("timeout", F.TimeoutSec, "<secs>", "wall-clock deadline");
  P.flag("memory-budget", F.MemoryMB, "<mb>", "exploration memory budget");
  P.flag("report", F.Report, "<path>", "write a JSON run report");
  P.flag("zero-timings", F.ZeroTimings, "zero out report timings");
  P.custom("engine", "<kiss|conc>", "checking engine",
           [&F](const std::string &V, std::string &Err) {
             if (V != "kiss" && V != "conc") {
               Err = "unknown engine";
               return false;
             }
             F.Engine = V;
             return true;
           });
  P.positional(F.Input);
  P.footer("exit codes: 0 ok, 1 error found, 2 usage, 3 bound");
  return P;
}

TEST(CliTest, ParsesEveryFlagShape) {
  ToolFlags F;
  cli::ArgParser P = makeToolParser(F);
  EXPECT_TRUE(parseArgs(P, {"--jobs=4", "--timeout=1.5",
                            "--memory-budget=64", "--report=out.json",
                            "--zero-timings", "--engine=conc", "in.kiss"}));
  EXPECT_EQ(F.Jobs, 4u);
  EXPECT_DOUBLE_EQ(F.TimeoutSec, 1.5);
  EXPECT_EQ(F.MemoryMB, 64u);
  EXPECT_EQ(F.Report, "out.json");
  EXPECT_TRUE(F.ZeroTimings);
  EXPECT_EQ(F.Engine, "conc");
  EXPECT_EQ(F.Input, "in.kiss");
}

TEST(CliTest, DefaultsSurviveAnEmptyCommandLine) {
  ToolFlags F;
  cli::ArgParser P = makeToolParser(F);
  EXPECT_TRUE(parseArgs(P, {}));
  EXPECT_EQ(F.Jobs, 0u);
  EXPECT_FALSE(F.ZeroTimings);
  EXPECT_EQ(F.Engine, "kiss");
  EXPECT_TRUE(F.Input.empty());
}

TEST(CliTest, RejectsMalformedInput) {
  // One scenario per line; each must fail without corrupting later runs.
  const std::vector<std::vector<std::string>> Bad = {
      {"--no-such-flag"},        // unknown option
      {"--jobs=abc"},            // not a number
      {"--timeout=0"},           // flagPositive rejects zero
      {"--timeout=-1"},          // ... and negatives
      {"--engine=magic"},        // custom parser error
      {"--zero-timings=yes"},    // presence flag takes no value
      {"a.kiss", "b.kiss"},      // second positional
      {"--help"},                // help: parse fails, caller prints usage
  };
  for (const auto &Args : Bad) {
    ToolFlags F;
    cli::ArgParser P = makeToolParser(F);
    EXPECT_FALSE(parseArgs(P, Args)) << Args.front();
  }
}

TEST(CliTest, UsageIsGeneratedFromTheFlagTable) {
  ToolFlags F;
  cli::ArgParser P = makeToolParser(F);
  std::string U = P.usage();
  for (const char *Needle :
       {"usage: tool [options] <file.kiss>", "--jobs=<n>",
        "--timeout=<secs>", "--memory-budget=<mb>", "--report=<path>",
        "--zero-timings", "--engine=<kiss|conc>",
        "exit codes: 0 ok, 1 error found, 2 usage, 3 bound"})
    EXPECT_NE(U.find(Needle), std::string::npos) << Needle;
}

TEST(CliTest, ExitCodeContract) {
  EXPECT_EQ(cli::exitCode(false, false), cli::ExitNoError);
  EXPECT_EQ(cli::exitCode(true, false), cli::ExitErrorFound);
  EXPECT_EQ(cli::exitCode(false, true), cli::ExitBoundExceeded);
  // Inconclusive dominates: a partial campaign is not a clean verdict.
  EXPECT_EQ(cli::exitCode(true, true), cli::ExitBoundExceeded);
}

} // namespace
