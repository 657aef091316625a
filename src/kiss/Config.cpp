//===- Config.cpp - The serialized CheckConfig surface --------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "kiss/Config.h"

#include "support/Cli.h"
#include "support/Json.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace kiss::config {

namespace {

std::string renderU64(uint64_t V) { return std::to_string(V); }

std::string renderBool(bool B) { return B ? "true" : "false"; }

/// Shortest decimal text that strtod's back to exactly \p V. Integral
/// values print without a decimal point ("0", "30"), so integer-valued
/// knobs look like integers in the JSON.
std::string renderDouble(double V) {
  if (V == static_cast<uint64_t>(V) && V >= 0 && V < 9e15)
    return std::to_string(static_cast<uint64_t>(V));
  char Buf[64];
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

bool parseU64Text(const std::string &V, uint64_t &Out) {
  if (V.empty())
    return false;
  for (char C : V)
    if (C < '0' || C > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V.c_str(), &End, 10);
  if (errno == ERANGE || End != V.c_str() + V.size())
    return false;
  Out = N;
  return true;
}

bool setUnsigned(const std::string &V, unsigned &Target, std::string &Err,
                 bool RequirePositive = false) {
  uint64_t N = 0;
  if (!parseU64Text(V, N) || N > 0xffffffffull ||
      (RequirePositive && N == 0)) {
    Err = RequirePositive ? "needs a positive integer"
                          : "needs an unsigned integer";
    return false;
  }
  Target = static_cast<unsigned>(N);
  return true;
}

bool setU64(const std::string &V, uint64_t &Target, std::string &Err) {
  if (!parseU64Text(V, Target)) {
    Err = "needs an unsigned integer";
    return false;
  }
  return true;
}

bool setBool(const std::string &V, bool &Target, std::string &Err) {
  if (V == "true")
    Target = true;
  else if (V == "false")
    Target = false;
  else {
    Err = "needs true or false";
    return false;
  }
  return true;
}

bool setNonNegDouble(const std::string &V, double &Target, std::string &Err) {
  char *End = nullptr;
  double D = std::strtod(V.c_str(), &End);
  if (V.empty() || End != V.c_str() + V.size() || !std::isfinite(D) ||
      D < 0) {
    Err = "needs a non-negative number of seconds";
    return false;
  }
  Target = D;
  return true;
}

// The table. Help text matches the historical kisscheck spellings so
// usage output stays stable across the refactor; every tool that calls
// addFlags prints these same lines.
const FieldSpec Table[] = {
    {"max_ts", "max-ts", "<n>", nullptr, "ts multiset bound MAX (default 0)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) { return renderU64(C.MaxTs); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setUnsigned(V, C.MaxTs, E);
     }},
    {"max_switches", "max-switches", "<k>", nullptr,
     "context-switch bound K (default 2 = the paper's\n"
     "Theorem 1; K > 2 adds suspend/resume rounds)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) { return renderU64(C.MaxSwitches); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setUnsigned(V, C.MaxSwitches, E, /*RequirePositive=*/true);
     }},
    {"max_states", "max-states", "<n>", nullptr,
     "state budget (default 1000000)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) { return renderU64(C.MaxStates); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setU64(V, C.MaxStates, E);
     }},
    {"timeout_sec", "timeout", "<secs>", nullptr,
     "wall-clock deadline per check; exceeding it is a\n"
     "'bound exceeded' verdict (reason: deadline), exit 3",
     /*CacheRelevant=*/false,
     [](const CheckConfig &C) {
       return renderDouble(C.Common.Budget.DeadlineSec);
     },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setNonNegDouble(V, C.Common.Budget.DeadlineSec, E);
     }},
    {"memory_budget_mb", "memory-budget", "<mb>", nullptr,
     "visited-set byte budget per check (reason: memory),\n"
     "exit 3",
     /*CacheRelevant=*/false,
     [](const CheckConfig &C) {
       return renderU64(C.Common.Budget.MemoryBytes / (1024 * 1024));
     },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       uint64_t MB = 0;
       if (!setU64(V, MB, E))
         return false;
       if (MB > (UINT64_MAX >> 20)) {
         E = "needs at most " + renderU64(UINT64_MAX >> 20) + " MiB";
         return false;
       }
       C.Common.Budget.MemoryBytes = MB * 1024 * 1024;
       return true;
     }},
    {"jobs", "jobs", "<n>", nullptr,
     "worker threads for fan-out runs such as --race-all\n"
     "(0 = all cores; single checks are unaffected)",
     /*CacheRelevant=*/false,
     [](const CheckConfig &C) { return renderU64(C.Common.Jobs); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setUnsigned(V, C.Common.Jobs, E);
     }},
    {"use_alias", "no-alias", nullptr, "false", "disable probe pruning",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) { return renderBool(C.UseAliasAnalysis); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setBool(V, C.UseAliasAnalysis, E);
     }},
    {"engine", "engine", "<seq|bebop|auto>", nullptr,
     "check backend for the Figure-4 sequentialization:\n"
     "seq (default) = explicit-state exploration;\n"
     "bebop = summary-based boolean-program engine (rejects\n"
     "programs outside the boolean fragment, exit 2);\n"
     "auto = bebop when the translated program is in the\n"
     "fragment, seq otherwise (reason recorded in the report)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) {
       return std::string(rt::getEngineName(C.Engine));
     },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       if (!rt::parseEngine(V, C.Engine)) {
         E = "needs seq, bebop, or auto";
         return false;
       }
       return true;
     }},
    {"exec", "exec", "<interp|threaded>", nullptr,
     "sequential execution engine: threaded (default) = flat\n"
     "pre-lowered instruction stream; interp = the reference\n"
     "CFG-walking interpreter (identical results, slower)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) {
       return std::string(rt::getExecEngineName(C.Exec));
     },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       if (!rt::parseExecEngine(V, C.Exec)) {
         E = "needs interp or threaded";
         return false;
       }
       return true;
     }},
    {"store", "store", "<flat|delta>", nullptr,
     "visited-set storage: flat (default) = full encodings;\n"
     "delta = parent diffs with keyframes (smaller arena,\n"
     "identical verdicts and counts)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) {
       return std::string(rt::getStoreModeName(C.Store));
     },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       if (!rt::parseStoreMode(V, C.Store)) {
         E = "needs flat or delta";
         return false;
       }
       return true;
     }},
    {"sample_every", "sample-every", "<n>", nullptr,
     "sample the exploration time-series every <n> interned\n"
     "states into the report's per-check \"series\" array\n"
     "(deterministic: keyed by state count, identical across\n"
     "--exec engines and --jobs)",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) { return renderU64(C.SampleEvery); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setU64(V, C.SampleEvery, E);
     }},
    {"profile", "profile", nullptr, "true",
     "collect the per-line hot-path profile (states,\n"
     "transitions, dedup hits by source line) and embed it\n"
     "in the report; identical across --exec engines",
     /*CacheRelevant=*/true,
     [](const CheckConfig &C) { return renderBool(C.Profile); },
     [](CheckConfig &C, const std::string &V, std::string &E) {
       return setBool(V, C.Profile, E);
     }},
};

constexpr size_t TableSize = sizeof(Table) / sizeof(Table[0]);

const FieldSpec *findField(std::string_view Key) {
  for (const FieldSpec &F : Table)
    if (Key == F.Key)
      return &F;
  return nullptr;
}

std::string posPrefix(std::string_view Name, uint32_t Line, uint32_t Col) {
  return std::string(Name) + ":" + std::to_string(Line) + ":" +
         std::to_string(Col) + ": ";
}

/// The canonical scalar text of a JSON value for Set(): raw token for
/// numbers, true/false for bools, the decoded text for strings.
/// \returns false for arrays/objects/null.
bool scalarText(const json::Value &V, std::string &Out) {
  switch (V.kind()) {
  case json::Value::Kind::Number:
    Out = V.rawNumber();
    return true;
  case json::Value::Kind::Bool:
    Out = V.asBool() ? "true" : "false";
    return true;
  case json::Value::Kind::String:
    Out = V.asString();
    return true;
  default:
    return false;
  }
}

} // namespace

const FieldSpec *fields(size_t &Count) {
  Count = TableSize;
  return Table;
}

std::string toJson(const CheckConfig &Cfg) {
  std::string Out = "{\n  \"config_version\": " + std::to_string(Version);
  for (const FieldSpec &F : Table) {
    Out += ",\n  ";
    Out += json::quote(F.Key);
    Out += ": ";
    // Enum fields render as JSON strings; everything else is a bare token.
    std::string V = F.Render(Cfg);
    bool Bare = V == "true" || V == "false" ||
                (!V.empty() && (V[0] == '-' || (V[0] >= '0' && V[0] <= '9')));
    Out += Bare ? V : json::quote(V);
  }
  Out += "\n}";
  return Out;
}

bool fromJson(const json::Value &V, std::string_view Name, CheckConfig &Cfg,
              std::string &Error) {
  if (!V.isObject()) {
    Error = posPrefix(Name, V.line() ? V.line() : 1, V.col() ? V.col() : 1) +
            "config must be a JSON object";
    return false;
  }
  for (const json::Member &M : V.members()) {
    const json::Value &MV = V.memberValue(M);
    if (M.Key == "config_version") {
      uint64_t Ver = 0;
      if (!MV.asU64(Ver) || Ver != Version) {
        Error = posPrefix(Name, MV.line(), MV.col()) +
                "unsupported config_version (this build understands " +
                std::to_string(Version) + ")";
        return false;
      }
      continue;
    }
    const FieldSpec *F = findField(M.Key);
    if (!F) {
      Error = posPrefix(Name, M.KeyLine, M.KeyCol) + "unknown config key '" +
              M.Key + "'";
      return false;
    }
    std::string Text;
    std::string Err;
    if (!scalarText(MV, Text) || !F->Set(Cfg, Text, Err)) {
      Error = posPrefix(Name, MV.line(), MV.col()) + "config key '" + M.Key +
              "' " + (Err.empty() ? "needs a scalar value" : Err);
      return false;
    }
  }
  return true;
}

bool parseJson(std::string_view Text, std::string_view Name, CheckConfig &Cfg,
               std::string &Error) {
  json::Value V;
  if (!json::parse(Text, Name, V, Error))
    return false;
  return fromJson(V, Name, Cfg, Error);
}

bool loadFile(const std::string &Path, CheckConfig &Cfg, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = Path + ": cannot open config file";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return parseJson(Buffer.str(), Path, Cfg, Error);
}

bool setField(CheckConfig &Cfg, std::string_view Key,
              const std::string &Value, std::string &Error) {
  const FieldSpec *F = findField(Key);
  if (!F) {
    Error = "unknown config field '" + std::string(Key) + "'";
    return false;
  }
  std::string Err;
  if (!F->Set(Cfg, Value, Err)) {
    Error = std::string(Key) + " " + Err;
    return false;
  }
  return true;
}

void addFlags(cli::ArgParser &P, CheckConfig &Cfg,
              std::initializer_list<const char *> ExcludeKeys) {
  for (const FieldSpec &F : Table) {
    bool Skip = false;
    for (const char *Ex : ExcludeKeys)
      Skip |= std::strcmp(Ex, F.Key) == 0;
    if (Skip)
      continue;
    const FieldSpec *Spec = &F;
    if (F.Arg) {
      P.custom(F.Flag, F.Arg, F.Help,
               [&Cfg, Spec](const std::string &V, std::string &E) {
                 std::string Err;
                 if (!Spec->Set(Cfg, V, Err)) {
                   E = std::string("--") + Spec->Flag + " " + Err;
                   return false;
                 }
                 return true;
               });
    } else {
      P.custom(F.Flag, "", F.Help,
               [&Cfg, Spec](const std::string &V, std::string &E) {
                 if (!V.empty()) {
                   E = std::string("--") + Spec->Flag + " takes no value";
                   return false;
                 }
                 std::string Err;
                 return Spec->Set(Cfg, Spec->FlagText, Err);
               },
               /*ValueOptional=*/true);
    }
  }
}

std::string cacheKey(std::string_view Source, std::string_view Field,
                     const CheckConfig &Cfg) {
  std::string Key = "kiss-request v" + std::to_string(Version) + "\n";
  Key += "field=";
  Key += Field;
  Key += "\n";
  for (const FieldSpec &F : Table) {
    if (!F.CacheRelevant)
      continue;
    Key += F.Key;
    Key += "=";
    Key += F.Render(Cfg);
    Key += "\n";
  }
  Key += SourceMarker;
  Key += Source;
  return Key;
}

} // namespace kiss::config
