// F1 — fault-injection overhead.
//
// The fault layer is only honest if its probes are cheap enough to leave on:
// an instrumented register that slows the hot path distorts the very
// schedules the campaign wants to explore. Two tables:
//   (a) rt register access cost with no injector, an attached-but-idle
//       injector (all probabilities zero — the always-on configuration),
//       and an active injector (yields enabled);
//   (b) simulator scheduling throughput for a bare RandomScheduler vs the
//       Nemesis wrapper vs the full certifier stack (recording + nemesis),
//       i.e. what a campaign schedule costs over a plain run. The plan's
//       crashes are armed on the World, as the certifier arms them.
#include <chrono>

#include "bench_common.hpp"
#include "fault/nemesis.hpp"
#include "fault/rt_inject.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "util/rng.hpp"

namespace apram::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_f1_fault_overhead", flags);
  const auto ops = static_cast<std::uint64_t>(
      flags.get_int("ops", 2'000'000));
  const auto sim_writes = flags.get_int("sim_writes", 20'000);
  flags.check_unused();

  // ---- (a) rt register: injector cost at the access boundary ------------
  Table rt_table("F1a: rt SWMR register write cost (single writer thread)",
                 {"configuration", "ns/op"});
  {
    rt::SWMRRegister<std::uint64_t> reg(0);
    double ns = 0;
    rt::parallel_run(1, [&](int) {
      ns = ns_per_op([&] { for (std::uint64_t i = 0; i < ops; ++i) reg.write(i); },
                     ops);
    });
    rt_table.add("no injector").add(ns, 2).end_row();
  }
  {
    rt::SWMRRegister<std::uint64_t> reg(0);
    fault::RtInjector inj(fault::RtInjectOptions{});  // attached, all-zero
    reg.attach_injector(&inj);
    double ns = 0;
    rt::parallel_run(1, [&](int) {
      ns = ns_per_op([&] { for (std::uint64_t i = 0; i < ops; ++i) reg.write(i); },
                     ops);
    });
    rt_table.add("injector idle").add(ns, 2).end_row();
  }
  {
    rt::SWMRRegister<std::uint64_t> reg(0);
    fault::RtInjectOptions opts;
    opts.yield_prob = 0.1;
    fault::RtInjector inj(opts);
    reg.attach_injector(&inj);
    const std::uint64_t active_ops = ops / 10;  // yields dominate: fewer ops
    double ns = 0;
    rt::parallel_run(1, [&](int) {
      ns = ns_per_op(
          [&] { for (std::uint64_t i = 0; i < active_ops; ++i) reg.write(i); },
          active_ops);
    });
    rt_table.add("injector active (yield 10%)").add(ns, 2).end_row();
  }
  rt_table.print(std::cout);

  // ---- (b) sim: campaign scheduler stack vs bare random -----------------
  Table sim_table("F1b: simulator grant throughput (3 writers)",
                  {"scheduler stack", "steps", "Msteps/sec"});
  const auto make_exec = [&](sim::World& w,
                             std::vector<sim::Register<int>*>& regs) {
    for (int pid = 0; pid < 3; ++pid) {
      regs.push_back(&w.make<int>(0, pid));
      w.spawn(pid, [&regs, pid, sim_writes](sim::Context ctx)
                  -> sim::ProcessTask {
        for (int i = 1; i <= sim_writes; ++i) {
          co_await ctx.write(*regs[static_cast<std::size_t>(pid)], i);
        }
      });
    }
  };
  const auto time_run = [&](const std::string& label, auto&& mk_and_run) {
    const auto t0 = Clock::now();
    const std::uint64_t steps = mk_and_run();
    const auto t1 = Clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    sim_table.add(label).add(steps).add(
        static_cast<double>(steps) / 1e6 / secs, 2);
    sim_table.end_row();
  };
  time_run("random", [&] {
    sim::World w(3);
    std::vector<sim::Register<int>*> regs;
    make_exec(w, regs);
    sim::RandomScheduler sched(1);
    w.run(sched);
    return w.global_step();
  });
  time_run("nemesis(random)", [&] {
    Rng rng(7);
    fault::PlanOptions popts;
    const fault::FaultPlan plan = fault::random_plan(rng, 3, popts);
    sim::World w(3, {.crashes = plan.crashes});
    std::vector<sim::Register<int>*> regs;
    make_exec(w, regs);
    sim::RandomScheduler inner(1);
    fault::Nemesis sched(inner, plan);
    w.run(sched);
    return w.global_step();
  });
  time_run("recording(nemesis(random))", [&] {
    Rng rng(7);
    fault::PlanOptions popts;
    const fault::FaultPlan plan = fault::random_plan(rng, 3, popts);
    sim::World w(3, {.crashes = plan.crashes});
    std::vector<sim::Register<int>*> regs;
    make_exec(w, regs);
    sim::RandomScheduler inner(1);
    fault::Nemesis nem(inner, plan);
    sim::RecordingScheduler sched(nem);
    w.run(sched);
    return w.global_step();
  });
  sim_table.print(std::cout);

  bobs.emit();
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
