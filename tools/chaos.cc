// chaos: seeded fault-injection campaigns over the full nested stack.
//
//   chaos --mode=campaign [--campaigns=N] [--fault-seed=S] [--fault-rate=R]
//         [--watchdog=W]
//   chaos --mode=migrate [--campaigns=N] [--fault-seed=S] [--fault-rate=R]
//                       seeded live-migration campaigns: N runs per stack
//                       configuration with the six kMigrate* transport
//                       faults armed (run 0 of each config is fault-free),
//                       enforcing failure atomicity -- the VM is never lost
//                       or forked, and the live side's end state is
//                       bit-identical to an unmigrated control run
//   chaos --mode=zero   one fault-free boot per configuration, injector
//                       armed at rate 0 (prints "config cycles traps")
//   chaos --mode=off    the same boots with the injector disabled
//
// Campaign mode boots every stack configuration (plain VM, nested v8.3 with
// the guest hypervisor in non-VHE and VHE designs, nested NEVE both ways)
// N times under a seeded fault campaign and enforces the confinement
// contract:
//   - the process survives every campaign: an injected fault kills at most
//     the faulting VM, never the machine (a process abort fails the run)
//   - the fault.* metrics reconcile exactly with the injector's log
//   - every trace span the run began is closed, also those a confined
//     fault unwound
//   - a campaign that killed its VM can RestartVm() and complete a clean
//     follow-up run on the same machine
//
// Zero/off modes print one deterministic line per configuration;
// tools/chaos.sh byte-compares the two outputs to prove every injection
// gate is inert when nothing is armed.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault.h"
#include "src/hyp/guest_kvm.h"
#include "src/hyp/host_kvm.h"
#include "src/obs/tracer.h"
#include "src/snap/migrate.h"
#include "src/workload/stacks.h"

namespace neve {
namespace {

struct NamedConfig {
  const char* name;
  StackConfig cfg;
};

const NamedConfig kConfigs[] = {
    {"vm", StackConfig::Vm()},
    {"nested-v83", StackConfig::NestedV83(/*vhe=*/false)},
    {"nested-v83-vhe", StackConfig::NestedV83(/*vhe=*/true)},
    {"nested-neve", StackConfig::NestedNeve(/*vhe=*/false)},
    {"nested-neve-vhe", StackConfig::NestedNeve(/*vhe=*/true)},
};

// The boot workload: memory traffic (shadow Stage-2 fills when nested),
// device MMIO (exit + emulation path) and hypercalls (world switches).
GuestMain BootBody() {
  return [](GuestEnv& env) {
    for (int i = 0; i < 32; ++i) {
      env.Store(Va(0x2000 + i * 0x1000), static_cast<uint64_t>(i));
      (void)env.Load(Va(0x2000 + i * 0x1000));
      if (i % 4 == 0) {
        env.Store(Va(kBenchDeviceBase + 0x20), static_cast<uint64_t>(i));
        (void)env.Load(Va(kBenchDeviceBase + 0x10));
      }
      env.Hvc(kHvcTestCall);
    }
  };
}

uint64_t CounterValue(const MetricsRegistry& metrics, const std::string& name) {
  const MetricCounter* c = metrics.FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// One campaign's results, or the sum of several. Campaigns run in parallel,
// so each fills its own Totals and RunCampaigns prints their violation
// reports in campaign order.
struct Totals {
  uint64_t campaigns = 0;
  uint64_t injections = 0;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t violations = 0;
  std::string report;  // one "chaos VIOLATION ..." line per violation
};

void Violation(Totals& t, const char* config, uint64_t seed,
               const std::string& what) {
  t.report += "chaos VIOLATION [" + std::string(config) +
              " seed=" + std::to_string(seed) + "] " + what + "\n";
  ++t.violations;
}

void Violation(Totals& t, const char* config, uint64_t seed,
               const std::string& what, uint64_t got, uint64_t want) {
  Violation(t, config, seed,
            what + ": got " + std::to_string(got) + ", want " +
                std::to_string(want));
}

void RunCampaign(const NamedConfig& nc, uint64_t seed, double rate,
                 uint64_t watchdog, Totals& t) {
  StackConfig cfg = nc.cfg;
  cfg.fault.enabled = true;
  cfg.fault.seed = seed;
  cfg.fault.rate = rate;
  cfg.fault.watchdog_budget = watchdog;
  ArmStack stack(cfg, 1);
  stack.machine().obs().set_enabled(true);
  Status status = stack.Run(BootBody());
  ++t.campaigns;

  // Reconcile the fault metrics with the injection log, exactly.
  const FaultInjector& fi = stack.machine().fault();
  const MetricsRegistry& metrics = stack.machine().obs().metrics();
  t.injections += fi.total_injections();
  if (CounterValue(metrics, "fault.injected_total") != fi.total_injections()) {
    Violation(t, nc.name, seed, "fault.injected_total vs log",
              CounterValue(metrics, "fault.injected_total"),
              fi.total_injections());
  }
  std::map<std::string, uint64_t> from_log;
  for (const InjectionRecord& rec : fi.log()) {
    ++from_log[FaultPointName(rec.point)];
  }
  uint64_t per_point_sum = 0;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    FaultPoint point = static_cast<FaultPoint>(p);
    const char* name = FaultPointName(point);
    per_point_sum += fi.count(point);
    if (fi.count(point) != from_log[name]) {
      Violation(t, nc.name, seed, name, fi.count(point), from_log[name]);
    }
    if (CounterValue(metrics, std::string("fault.injected.") + name) !=
        from_log[name]) {
      Violation(t, nc.name, seed, std::string("metric ") + name,
                CounterValue(metrics, std::string("fault.injected.") + name),
                from_log[name]);
    }
  }
  if (per_point_sum != fi.total_injections()) {
    Violation(t, nc.name, seed, "per-point sum", per_point_sum,
              fi.total_injections());
  }

  // Every trace span closes, also when a confined fault unwinds it.
  if (int64_t open = stack.machine().obs().tracer().open_spans(); open != 0) {
    Violation(t, nc.name, seed,
              "trace spans left open: " + std::to_string(open));
  }

  // Confinement: a failed run means exactly one confined VM kill, and the
  // machine must still be able to restart the VM and boot it cleanly.
  uint64_t kills = CounterValue(metrics, "fault.vm_kills");
  if (status.ok()) {
    if (kills != 0) {
      Violation(t, nc.name, seed, "vm_kills on a clean run", kills, 0);
    }
    return;
  }
  t.kills += kills;
  if (kills != 1) {
    Violation(t, nc.name, seed, "vm_kills on a faulted run", kills, 1);
  }
  Vm& vm = stack.MeasuredVcpu().vm();
  if (!vm.dead()) {
    Violation(t, nc.name, seed, "vm.dead() after confined kill", 0, 1);
    return;
  }
  stack.host().RestartVm(vm);
  stack.machine().fault().set_enabled(false);
  Status again = stack.Run(BootBody());
  if (!again.ok()) {
    Violation(t, nc.name, seed,
              "restarted VM failed a fault-free run: " + again.ToString());
    return;
  }
  ++t.restarts;
}

int RunCampaigns(int campaigns, uint64_t base_seed, double rate,
                 uint64_t watchdog) {
  // Every campaign builds its own stack, so campaigns share no state.
  const size_t per_config = campaigns > 0 ? static_cast<size_t>(campaigns) : 0;
  std::vector<Totals> runs(std::size(kConfigs) * per_config);
  ParallelFor(runs.size(), DefaultBenchThreads(), [&](size_t k) {
    size_t c = k / per_config;
    uint64_t seed = base_seed * 1000003ull + c * 131ull + k % per_config;
    RunCampaign(kConfigs[c], seed, rate, watchdog, runs[k]);
  });
  Totals t;
  for (const Totals& run : runs) {
    t.campaigns += run.campaigns;
    t.injections += run.injections;
    t.kills += run.kills;
    t.restarts += run.restarts;
    t.violations += run.violations;
    std::fputs(run.report.c_str(), stderr);
  }
  std::printf("chaos: %" PRIu64 " campaigns across %zu configs, %" PRIu64
              " injections, %" PRIu64 " vm kills, %" PRIu64 " restarts, %"
              PRIu64 " violations\n",
              t.campaigns, sizeof(kConfigs) / sizeof(kConfigs[0]),
              t.injections, t.kills, t.restarts, t.violations);
  if (t.kills != t.restarts) {
    std::fprintf(stderr,
                 "chaos VIOLATION: %" PRIu64 " kills but %" PRIu64
                 " successful restarts\n",
                 t.kills, t.restarts);
    return 1;
  }
  return t.violations == 0 ? 0 : 1;
}

// Seeded live-migration chaos: `runs_per_config` migrations per stack
// configuration with the six kMigrate* transport faults armed (run 0 is
// fault-free), each checked against an unmigrated control run of the same
// workload. The failure-atomicity contract:
//   - never lost or forked: exactly one side is live, and it is the
//     destination iff the commit handshake completed
//   - committed  => the destination's EndState is bit-identical to control
//   - rolled back => the engine gave up after its bounded retries and the
//     source's EndState is bit-identical to control (migration chaos must
//     not perturb guest execution)
//   - run 0 (no faults) must commit
int RunMigrateCampaigns(int runs_per_config, uint64_t base_seed, double rate) {
  uint64_t total = 0;
  uint64_t committed = 0;
  uint64_t stayed = 0;
  uint64_t attempts = 0;
  uint64_t lost_or_forked = 0;
  uint64_t violations = 0;
  auto violation = [&](const char* config, uint64_t seed, const char* what) {
    std::fprintf(stderr, "chaos VIOLATION [migrate %s seed=%" PRIu64 "] %s\n",
                 config, seed, what);
    ++violations;
  };
  for (size_t c = 0; c < sizeof(kConfigs) / sizeof(kConfigs[0]); ++c) {
    const NamedConfig& nc = kConfigs[c];
    snap::SnapSpec spec;
    spec.cfg = nc.cfg;
    // The window must outlast the protocol's worst case so every run ends
    // in a terminal state (committed or gave up), never "still migrating":
    // 4 attempts x 5 rounds + exponential backoff (2+4+8 pulses) = 34
    // pulses = 136 steps at the pulse interval below.
    spec.steps = 160;
    spec.seed = 11;
    spec.store_span_pages = 4;

    snap::SnapRunner control(spec);
    Status cs = control.Run();
    if (!cs.ok()) {
      violation(nc.name, 0, "control run failed");
      continue;
    }
    snap::EndState control_end = control.End();

    for (int i = 0; i < runs_per_config; ++i) {
      uint64_t seed = base_seed * 1000003ull + c * 131ull + i;
      snap::MigrateConfig mc;
      mc.precopy_rounds = 3;
      mc.pulse_interval_steps = 4;
      mc.fault.enabled = i != 0;  // run 0: fault-free identity check
      mc.fault.seed = seed;
      mc.fault.rate = rate;
      mc.fault.points = kMigrateFaultPoints;

      snap::MigrationOutcome out;
      Status st = RunMigration(spec, mc, &out);
      ++total;
      attempts += static_cast<uint64_t>(out.stats.attempts);
      if (!st.ok()) {
        violation(nc.name, seed, "migration run failed structurally");
        continue;
      }
      if (out.vm_on_dest != out.stats.committed) {
        ++lost_or_forked;
        violation(nc.name, seed, "VM lost or forked");
        continue;
      }
      if (out.stats.committed) {
        ++committed;
        if (!(out.dest_end == control_end)) {
          violation(nc.name, seed, "destination diverged from control");
        }
      } else {
        ++stayed;
        if (!out.stats.gave_up) {
          violation(nc.name, seed, "uncommitted without giving up");
        }
        if (!(out.source_end == control_end)) {
          violation(nc.name, seed, "source diverged from control");
        }
      }
      if (i == 0 && !out.stats.committed) {
        violation(nc.name, seed, "fault-free migration failed to commit");
      }
    }
  }
  std::printf("chaos migrate: %" PRIu64 " runs across %zu configs, %" PRIu64
              " attempts, %" PRIu64 " committed, %" PRIu64
              " stayed on source, %" PRIu64 " lost/forked, %" PRIu64
              " violations\n",
              total, sizeof(kConfigs) / sizeof(kConfigs[0]), attempts,
              committed, stayed, lost_or_forked, violations);
  return violations == 0 ? 0 : 1;
}

// One fault-free boot per configuration. `armed` runs with the injector
// enabled at rate 0; chaos.sh byte-compares this against the disabled run.
int RunBaseline(bool armed) {
  for (const NamedConfig& nc : kConfigs) {
    StackConfig cfg = nc.cfg;
    cfg.fault.enabled = armed;
    cfg.fault.rate = 0.0;
    ArmStack stack(cfg, 1);
    Status status = stack.Run(BootBody());
    if (!status.ok()) {
      std::fprintf(stderr, "chaos: fault-free %s boot failed: %s\n", nc.name,
                   status.ToString().c_str());
      return 1;
    }
    if (stack.machine().fault().total_injections() != 0) {
      std::fprintf(stderr, "chaos: %s injected at rate 0\n", nc.name);
      return 1;
    }
    std::printf("%-16s cycles=%" PRIu64 " traps=%" PRIu64 "\n", nc.name,
                stack.machine().cpu(0).cycles(), stack.TotalTrapsToHost());
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::string mode = "campaign";
  int campaigns = 12;
  // The whole nested stack boots inside ONE host RunVcpu entry, so the
  // per-entry watchdog budget must clear the longest legitimate boot
  // (nested-v8.3 is ~22M cycles of exit multiplication); a genuine trap
  // livelock blows through any finite budget, so margin costs nothing.
  uint64_t watchdog = 200'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--campaigns=", 12) == 0) {
      campaigns = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--watchdog=", 11) == 0) {
      watchdog = std::strtoull(argv[i] + 11, nullptr, 10);
    }
  }
  uint64_t seed = FaultSeedFromArgs(argc, argv);
  if (seed == 0) {
    seed = 20170801;  // default campaign family
  }
  double rate = FaultRateFromArgs(argc, argv);
  if (mode == "campaign") {
    return RunCampaigns(campaigns, seed, rate == 0.0 ? 0.02 : rate, watchdog);
  }
  if (mode == "migrate") {
    // The transport points see only a handful of draw opportunities per run
    // (one per protocol round), so the default rate is much higher than the
    // trap-level campaign's: the sweep must reach rollbacks and exhausted
    // retries, not just clean commits. Nine runs per config x five configs
    // clears the 40-run campaign floor with the fault-free identity run
    // included.
    int runs = campaigns == 12 ? 9 : campaigns;
    return RunMigrateCampaigns(runs, seed, rate == 0.0 ? 0.25 : rate);
  }
  if (mode == "zero") {
    return RunBaseline(/*armed=*/true);
  }
  if (mode == "off") {
    return RunBaseline(/*armed=*/false);
  }
  std::fprintf(stderr,
               "usage: chaos --mode=campaign|migrate|zero|off [--campaigns=N]"
               " [--fault-seed=S] [--fault-rate=R] [--watchdog=W]\n");
  return 2;
}

}  // namespace
}  // namespace neve

int main(int argc, char** argv) { return neve::Main(argc, argv); }
