//===- service_load.cpp - kissd service latency/throughput bench ----------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load profile of the checking service (src/service): a cold pass of
/// distinct programs (every request misses the result cache and runs a
/// real check) followed by hot rounds over the same programs (every
/// request replays cached bytes). Emits BENCH_service.json through the
/// shared telemetry report writer with two synthetic check records —
/// "cold" and "hot", wall_ms = mean per-request latency — plus p50/p99
/// latency, throughput, and hit-rate counters. The CTest gate holds the
/// service to its core promise via tools/bench_diff.py:
///
///     --check-wall-ratio 'hot:cold:0.1'   (a hit is >= 10x faster)
///
/// The bench drives CheckService in-process, not through a socket: the
/// gate measures the cache against the checker, and the framing layer's
/// microseconds would only add noise.
///
///   service_load [--workers=N] [--programs=N] [--rounds=N]
///                [--json-out=PATH]
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace kiss;

namespace {

using Clock = std::chrono::steady_clock;

/// One distinct program per index: the scalability thread family with an
/// index-dependent constant, so every source (and thus every cache key)
/// differs while the exploration cost stays comparable.
std::string makeProgram(unsigned Index, unsigned Threads, unsigned Steps) {
  std::string Src = "int g = 0;\n";
  Src += "void w() {\n";
  for (unsigned S = 0; S != Steps; ++S)
    Src += "  g = " + std::to_string(Index * 100 + S + 1) + ";\n";
  Src += "}\n";
  Src += "void main() {\n";
  for (unsigned T = 0; T != Threads; ++T)
    Src += "  async w();\n";
  Src += "  assert(true);\n";
  Src += "}\n";
  return Src;
}

double percentileUs(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t At = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  return Sorted[At];
}

double meanUs(const std::vector<double> &Us) {
  double Total = 0;
  for (double V : Us)
    Total += V;
  return Us.empty() ? 0 : Total / static_cast<double>(Us.size());
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Workers = 2, Programs = 16, Rounds = 10;
  const char *JsonOut = "BENCH_service.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--workers=", 10) == 0)
      Workers = static_cast<unsigned>(std::strtoul(Argv[I] + 10, nullptr, 10));
    else if (std::strncmp(Argv[I], "--programs=", 11) == 0)
      Programs =
          static_cast<unsigned>(std::strtoul(Argv[I] + 11, nullptr, 10));
    else if (std::strncmp(Argv[I], "--rounds=", 9) == 0)
      Rounds = static_cast<unsigned>(std::strtoul(Argv[I] + 9, nullptr, 10));
    else if (std::strncmp(Argv[I], "--json-out=", 11) == 0)
      JsonOut = Argv[I] + 11;
    else {
      std::fprintf(stderr,
                   "usage: service_load [--workers=N] [--programs=N] "
                   "[--rounds=N] [--json-out=PATH]\n");
      return 2;
    }
  }
  if (!Workers || !Programs || !Rounds) {
    std::fprintf(stderr, "service_load: all knobs must be positive\n");
    return 2;
  }

  service::CheckService Svc({Workers, /*CachePath=*/""});
  std::vector<service::Request> Requests;
  for (unsigned I = 0; I != Programs; ++I) {
    service::Request R;
    R.Name = "prog" + std::to_string(I) + ".kiss";
    R.Source = makeProgram(I, /*Threads=*/4, /*Steps=*/4);
    R.Cfg.MaxTs = 1;
    Requests.push_back(std::move(R));
  }

  // Cold pass: every request is new, so every one must miss and run the
  // full compile + check pipeline.
  std::vector<double> ColdUs, HotUs;
  auto ColdStart = Clock::now();
  for (const service::Request &R : Requests) {
    auto T0 = Clock::now();
    service::Reply Rep = Svc.check(R);
    ColdUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - T0).count());
    if (Rep.Cache != service::CacheDisposition::Miss || Rep.Code != 0) {
      std::fprintf(stderr, "service_load: cold %s: expected a clean miss\n",
                   R.Name.c_str());
      return 2;
    }
  }
  double ColdMs =
      std::chrono::duration<double, std::milli>(Clock::now() - ColdStart)
          .count();

  // Hot rounds: the same requests replay from the cache.
  auto HotStart = Clock::now();
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    for (const service::Request &R : Requests) {
      auto T0 = Clock::now();
      service::Reply Rep = Svc.check(R);
      HotUs.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - T0)
              .count());
      if (Rep.Cache != service::CacheDisposition::Hit || Rep.Code != 0) {
        std::fprintf(stderr, "service_load: hot %s: expected a hit\n",
                     R.Name.c_str());
        return 2;
      }
    }
  }
  double HotMs =
      std::chrono::duration<double, std::milli>(Clock::now() - HotStart)
          .count();

  uint64_t Hits = Svc.cache().hits(), Misses = Svc.cache().misses();
  double HotRps = HotMs > 0 ? static_cast<double>(HotUs.size()) * 1000.0 /
                                  HotMs
                            : 0;
  double HitRatePct = 100.0 * static_cast<double>(Hits) /
                      static_cast<double>(Hits + Misses);

  telemetry::RunRecorder Rec;
  Rec.setMeta("bench", "service_load");
  Rec.setMeta("workload",
              std::to_string(Programs) + " programs (family k=4 m=4, "
                                         "MAX=1), " +
                  std::to_string(Rounds) + " hot rounds");
  Rec.setMeta("workers", std::to_string(Workers));
  Rec.addPhase("cold", ColdMs);
  Rec.addPhase("hot", HotMs);

  // Two synthetic records carrying the latency profile: wall_ms is the
  // mean per-request latency, which the wall-ratio gate compares. They
  // explore nothing, so their sample counts are run counters.
  telemetry::CheckRecord Cold;
  Cold.Name = "cold";
  Cold.Outcome = "miss";
  Cold.WallMs = meanUs(ColdUs) / 1000.0;
  Rec.addCheck(std::move(Cold));
  telemetry::CheckRecord Hot;
  Hot.Name = "hot";
  Hot.Outcome = "hit";
  Hot.WallMs = meanUs(HotUs) / 1000.0;
  Rec.addCheck(std::move(Hot));

  Rec.addCounter("cold_samples", ColdUs.size());
  Rec.addCounter("hot_samples", HotUs.size());
  Rec.addCounter("requests", Hits + Misses);
  Rec.addCounter("cache_hits", Hits);
  Rec.addCounter("cache_misses", Misses);
  Rec.addCounter("cache_hit_rate_pct",
                 static_cast<uint64_t>(HitRatePct + 0.5));
  Rec.addCounter("p50_cold_us",
                 static_cast<uint64_t>(percentileUs(ColdUs, 0.50)));
  Rec.addCounter("p99_cold_us",
                 static_cast<uint64_t>(percentileUs(ColdUs, 0.99)));
  Rec.addCounter("p50_hot_us",
                 static_cast<uint64_t>(percentileUs(HotUs, 0.50)));
  Rec.addCounter("p99_hot_us",
                 static_cast<uint64_t>(percentileUs(HotUs, 0.99)));
  Rec.addCounter("hot_requests_per_sec", static_cast<uint64_t>(HotRps));

  std::printf("service_load: %u workers, %u programs, %u hot rounds\n",
              Workers, Programs, Rounds);
  std::printf("  cold: mean %8.1f us  p50 %8.1f us  p99 %8.1f us\n",
              meanUs(ColdUs), percentileUs(ColdUs, 0.50),
              percentileUs(ColdUs, 0.99));
  std::printf("  hot:  mean %8.1f us  p50 %8.1f us  p99 %8.1f us\n",
              meanUs(HotUs), percentileUs(HotUs, 0.50),
              percentileUs(HotUs, 0.99));
  std::printf("  hot throughput: %.0f requests/s, hit rate %.1f%% "
              "(%llu hits / %llu misses)\n",
              HotRps, HitRatePct, static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Misses));

  if (telemetry::writeReport(Rec, JsonOut))
    std::printf("wrote %s\n", JsonOut);
  else {
    std::fprintf(stderr, "service_load: cannot write %s\n", JsonOut);
    return 2;
  }
  return 0;
}
