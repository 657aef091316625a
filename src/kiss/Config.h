//===- Config.h - The serialized CheckConfig surface ------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the externally-visible `CheckConfig`
/// surface. One field-spec table drives four consumers that previously
/// could have drifted apart:
///
///   * `toJson` / `fromJson` — the versioned JSON schema used by
///     `kisscheck --config=FILE` and the kissd wire protocol,
///   * `addFlags` — the `cli::ArgParser` registrations for the shared
///     knobs (kisscheck, kissd, kissctl all call it),
///   * `cacheKey` — the canonical request string kissd's result cache is
///     keyed by (only the verdict-relevant subset participates),
///   * `setField` — by-name assignment, for tools that wrap a table flag
///     with extra aliases (kisscheck's `--engine=conc`) but must keep the
///     core parsing identical.
///
/// JSON configs are *partial*: only the keys present are applied, over
/// whatever the CheckConfig already holds, so a file can pin two knobs and
/// later flags can still override (flags apply in command-line order).
/// Unknown keys and type mismatches are rejected with `file:line:col:`
/// diagnostics. Rendering is canonical — fixed key order, fixed number
/// formatting — and defaults round-trip byte-exact (pinned by golden
/// tests). The stability contract lives in docs/api.md.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_KISS_CONFIG_H
#define KISS_KISS_CONFIG_H

#include "kiss/Kiss.h"

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

namespace kiss::cli {
class ArgParser;
} // namespace kiss::cli

namespace kiss::json {
class Value;
} // namespace kiss::json

namespace kiss::config {

/// Version of the JSON config schema (the "config_version" member).
/// Bumped only when a key changes meaning or disappears; adding keys is
/// backward compatible (old files stay valid). Version 2 removed the
/// threaded engine's opt-in straight-line coarsening key; a v1 file
/// migrates by deleting that key and setting "config_version": 2.
inline constexpr unsigned Version = 2;

/// One externally-visible CheckConfig field. The table of these (see
/// `fields()`) is what keeps the JSON schema, the CLI flags, and the
/// cache key in lockstep.
struct FieldSpec {
  /// JSON member name and the `setField` spelling ("max_ts").
  const char *Key;
  /// CLI flag spelling without dashes ("max-ts"); for inverted or
  /// presence-style flags this may differ from Key ("no-alias" sets
  /// use_alias=false).
  const char *Flag;
  /// Usage metavar ("<n>"); null for presence flags.
  const char *Arg;
  /// Presence flags only: the canonical text handed to Set when the flag
  /// appears ("false" for no-alias, "true" for profile).
  const char *FlagText;
  /// Shared help text (rendered into every tool's usage).
  const char *Help;
  /// Whether the field can change a check's outcome or its embedded
  /// telemetry record — i.e. whether it participates in cacheKey().
  /// Budget/jobs knobs are excluded: trips are never cached, so two
  /// requests differing only in budget may share a cached result.
  bool CacheRelevant;
  /// Canonical JSON value text for the field's current setting.
  std::string (*Render)(const CheckConfig &);
  /// Parses canonical text ("2", "true", "seq") into the field. On
  /// failure returns false with \p Err set to a "needs ..." phrase; the
  /// caller prefixes the flag or file:line:col context.
  bool (*Set)(CheckConfig &, const std::string &Value, std::string &Err);
};

/// The field table, in canonical (serialization) order.
const FieldSpec *fields(size_t &Count);

/// Renders \p Cfg as the canonical multi-line JSON object, starting with
/// "config_version": Version, fields in table order, no trailing newline.
std::string toJson(const CheckConfig &Cfg);

/// Applies a parsed JSON object onto \p Cfg (partial update; keys absent
/// from \p V are left untouched). \p Name labels diagnostics. On failure
/// \returns false with \p Error = "<name>:<line>:<col>: <message>" and
/// \p Cfg possibly partially updated — treat it as dead.
bool fromJson(const json::Value &V, std::string_view Name, CheckConfig &Cfg,
              std::string &Error);

/// parse + fromJson in one step.
bool parseJson(std::string_view Text, std::string_view Name, CheckConfig &Cfg,
               std::string &Error);

/// Reads \p Path and applies it via parseJson. IO errors report as
/// "<path>: <reason>".
bool loadFile(const std::string &Path, CheckConfig &Cfg, std::string &Error);

/// By-name field assignment through the table ("engine", "seq"). The
/// escape hatch for tools that wrap a flag with extra aliases.
bool setField(CheckConfig &Cfg, std::string_view Key,
              const std::string &Value, std::string &Error);

/// Registers the table's CLI flags against \p P, bound to \p Cfg (which
/// must outlive the parser). \p ExcludeKeys (Key spellings, null-ok) names
/// fields the tool registers itself — kisscheck excludes "engine" (conc
/// alias) and "profile" (optional table depth).
void addFlags(cli::ArgParser &P, CheckConfig &Cfg,
              std::initializer_list<const char *> ExcludeKeys = {});

/// The canonical cache-key string for one check request: schema version,
/// race field, every cache-relevant config field, then the program
/// source. kissd stores this full string (hash-then-verify, no collision
/// risk); equal strings are exactly the requests guaranteed to produce
/// byte-identical (ZeroTimings) results.
std::string cacheKey(std::string_view Source, std::string_view Field,
                     const CheckConfig &Cfg);

/// The line cacheKey() writes between the config lines and the source.
/// kissd's result cache splits each key at its first occurrence, so the
/// program text is stored once however many names and configs share it.
inline constexpr std::string_view SourceMarker = "--source--\n";

} // namespace kiss::config

#endif // KISS_KISS_CONFIG_H
