//===- Cli.cpp ------------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace kiss;
using namespace kiss::cli;

int cli::exitCode(bool FoundError, bool BoundExceededOrInterrupted) {
  if (BoundExceededOrInterrupted)
    return ExitBoundExceeded;
  return FoundError ? ExitErrorFound : ExitNoError;
}

ArgParser::ArgParser(std::string Header) : Header(std::move(Header)) {}

void ArgParser::add(
    const char *Name, const char *Arg, const char *Help,
    std::function<bool(const std::string &, std::string &)> Parse,
    bool ValueOptional) {
  Spec S;
  S.Name = Name;
  S.Arg = Arg ? Arg : "";
  S.Help = Help;
  S.ValueOptional = ValueOptional;
  S.Parse = std::move(Parse);
  Specs.push_back(std::move(S));
}

namespace {

bool parseU64(const std::string &V, uint64_t &Out) {
  if (V.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(V.c_str(), &End, 10);
  return End != V.c_str() && *End == '\0';
}

} // namespace

void ArgParser::flag(const char *Name, unsigned &Target, const char *Arg,
                     const char *Help) {
  add(Name, Arg, Help, [Name, &Target](const std::string &V, std::string &E) {
    uint64_t N;
    if (!parseU64(V, N)) {
      E = std::string("--") + Name + " needs a number";
      return false;
    }
    Target = static_cast<unsigned>(N);
    return true;
  });
}

void ArgParser::flag(const char *Name, uint64_t &Target, const char *Arg,
                     const char *Help) {
  add(Name, Arg, Help, [Name, &Target](const std::string &V, std::string &E) {
    if (!parseU64(V, Target)) {
      E = std::string("--") + Name + " needs a number";
      return false;
    }
    return true;
  });
}

void ArgParser::flag(const char *Name, std::string &Target, const char *Arg,
                     const char *Help) {
  add(Name, Arg, Help, [Name, &Target](const std::string &V, std::string &E) {
    if (V.empty()) {
      E = std::string("--") + Name + " needs a value";
      return false;
    }
    Target = V;
    return true;
  });
}

void ArgParser::flagPositive(const char *Name, double &Target,
                             const char *Arg, const char *Help) {
  add(Name, Arg, Help, [Name, &Target](const std::string &V, std::string &E) {
    char *End = nullptr;
    double D = V.empty() ? 0 : std::strtod(V.c_str(), &End);
    if (V.empty() || End == V.c_str() || *End != '\0' || !std::isfinite(D) ||
        D <= 0) {
      E = std::string("--") + Name + " needs a positive number";
      return false;
    }
    Target = D;
    return true;
  });
}

void ArgParser::flagPositive(const char *Name, unsigned &Target,
                             const char *Arg, const char *Help) {
  add(Name, Arg, Help, [Name, &Target](const std::string &V, std::string &E) {
    uint64_t N;
    if (!parseU64(V, N) || N == 0) {
      E = std::string("--") + Name + " needs a positive number";
      return false;
    }
    Target = static_cast<unsigned>(N);
    return true;
  });
}

void ArgParser::flagPositive(const char *Name, uint64_t &Target,
                             const char *Arg, const char *Help) {
  add(Name, Arg, Help, [Name, &Target](const std::string &V, std::string &E) {
    uint64_t N;
    if (!parseU64(V, N) || N == 0) {
      E = std::string("--") + Name + " needs a positive number";
      return false;
    }
    Target = N;
    return true;
  });
}

void ArgParser::flag(const char *Name, bool &Target, const char *Help) {
  add(Name, nullptr, Help,
      [&Target](const std::string &, std::string &) {
        Target = true;
        return true;
      },
      /*ValueOptional=*/true);
}

void ArgParser::custom(
    const char *Name, const char *Arg, const char *Help,
    std::function<bool(const std::string &, std::string &)> Parse,
    bool ValueOptional) {
  add(Name, Arg, Help, std::move(Parse), ValueOptional);
}

void ArgParser::positional(std::string &Target) { Positional = &Target; }

void ArgParser::footer(std::string Text) { Footer = std::move(Text); }

bool ArgParser::parse(int Argc, char **Argv) {
  bool PositionalSeen = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h")
      return false;

    if (Arg.rfind("--", 0) == 0) {
      std::string Body = Arg.substr(2);
      std::string Name = Body;
      std::string Value;
      bool HasValue = false;
      if (auto Eq = Body.find('='); Eq != std::string::npos) {
        Name = Body.substr(0, Eq);
        Value = Body.substr(Eq + 1);
        HasValue = true;
      }
      const Spec *Match = nullptr;
      for (const Spec &S : Specs)
        if (S.Name == Name) {
          Match = &S;
          break;
        }
      if (!Match) {
        std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
        return false;
      }
      bool TakesValue = !Match->Arg.empty();
      if (HasValue && !TakesValue) {
        std::fprintf(stderr, "--%s does not take a value\n", Name.c_str());
        return false;
      }
      if (!HasValue && TakesValue && !Match->ValueOptional) {
        std::fprintf(stderr, "--%s needs %s\n", Name.c_str(),
                     Match->Arg.c_str());
        return false;
      }
      std::string Error;
      if (!Match->Parse(Value, Error)) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return false;
      }
      continue;
    }

    if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    }
    if (!Positional || PositionalSeen) {
      std::fprintf(stderr, "unexpected argument '%s'\n", Arg.c_str());
      return false;
    }
    *Positional = Arg;
    PositionalSeen = true;
  }
  return true;
}

std::string ArgParser::usage() const {
  // Align help text one column after the longest flag spelling, capped so
  // one very long flag doesn't push everything to the right margin.
  size_t Width = 0;
  for (const Spec &S : Specs) {
    size_t W = 2 + S.Name.size() + (S.Arg.empty() ? 0 : 1 + S.Arg.size());
    if (W > Width)
      Width = W;
  }
  if (Width > 28)
    Width = 28;

  std::string Out = Header;
  if (!Out.empty() && Out.back() != '\n')
    Out += '\n';
  for (const Spec &S : Specs) {
    std::string Left = "  --" + S.Name;
    if (!S.Arg.empty())
      Left += "=" + S.Arg;
    Out += Left;
    size_t Col = Left.size();
    // The help may be multi-line; continuation lines indent to the help
    // column.
    std::string Pad(Width + 4, ' ');
    size_t Pos = 0;
    bool First = true;
    while (Pos <= S.Help.size()) {
      size_t NL = S.Help.find('\n', Pos);
      std::string Line = S.Help.substr(
          Pos, NL == std::string::npos ? std::string::npos : NL - Pos);
      if (First) {
        if (Col + 2 > Width + 4)
          Out += "\n" + Pad;
        else
          Out += std::string(Width + 4 - Col, ' ');
        First = false;
      } else {
        Out += Pad;
      }
      Out += Line + "\n";
      if (NL == std::string::npos)
        break;
      Pos = NL + 1;
    }
    if (S.Help.empty())
      Out += "\n";
  }
  if (!Footer.empty()) {
    Out += "\n" + Footer;
    if (Footer.back() != '\n')
      Out += '\n';
  }
  return Out;
}
