#include "ladder.hpp"

#include <atomic>
#include <cstdint>
#include <vector>

#include "algebra/combiner.hpp"
#include "api/rt_backend.hpp"
#include "farray/farray.hpp"
#include "objects/polylog_queue.hpp"
#include "rt/reclaim.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/rt.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

using apram::api::RtBackend;
using Node = apram::farray::Stamped<std::int64_t>;

// Keeps `v` observable so the timed loop cannot be elided.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

constexpr int kReps = 9;

// Median over kReps repetitions of (time of `iters` calls) / iters.
template <class F>
double ns_per_op(std::uint64_t iters, F&& f) {
  std::vector<double> per;
  std::uint64_t i = 0;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t k = 0; k < iters; ++k) f(i++);
    per.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(iters));
  }
  return median(per);
}

// Runs `measure` on pid 0 while pids 1..threads-1 run `contend(pid)`
// until it returns. Returns measure's result.
template <class Measure, class Contend>
double contended(int threads, Measure&& measure, Contend&& contend) {
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  double result = 0.0;
  apram::rt::parallel_run(threads, [&](int pid) {
    pin_to_cpu(pid);
    started.fetch_add(1);
    if (pid == 0) {
      while (started.load() < threads) {
      }
      result = measure();
      stop.store(true);
    } else {
      while (!stop.load(std::memory_order_relaxed)) contend(pid);
    }
  });
  return result;
}

}  // namespace

Ladder run_ladder(int threads) {
  Ladder l;

  std::atomic<std::int64_t> a{0};
  std::int64_t sink = 0;
  l.atomic_load_ns = ns_per_op(1u << 20, [&](std::uint64_t) {
    sink += a.load(std::memory_order_acquire);
  });
  keep(sink);
  l.atomic_cas_ns = ns_per_op(1u << 20, [&](std::uint64_t i) {
    auto e = static_cast<std::int64_t>(i);
    a.compare_exchange_strong(e, e + 1);
  });

  apram::rt::SWMRRegister<std::int64_t> swmr(0);
  l.swmr_read_ns = ns_per_op(1u << 18, [&](std::uint64_t) {
    sink += swmr.read();
  });
  keep(sink);
  l.swmr_write_ns = ns_per_op(1u << 18, [&](std::uint64_t i) {
    swmr.write(static_cast<std::int64_t>(i));
  });

  apram::rt::CASValueRegister<Node> cv(threads, Node{0, 0});
  l.casvalue_read_ns = ns_per_op(1u << 18, [&](std::uint64_t) {
    sink += cv.read().v;
  });
  keep(sink);
  // Solo CAS always wins: the expected stamp is the one installed last.
  l.casvalue_cas_ns = ns_per_op(1u << 18, [&](std::uint64_t i) {
    cv.compare_exchange(0, Node{i, 0},
                        Node{i + 1, static_cast<std::int64_t>(i)});
  });

  // Contended rows: pid 0 measures while T-1 contenders hammer the same
  // register. The CAS row times a read-then-CAS attempt (the fast-path
  // shape of every CAS client), against contenders doing the same.
  apram::rt::CASValueRegister<Node> hot(threads, Node{0, 0});
  l.casvalue_read_contended_ns = contended(
      threads,
      [&] {
        std::int64_t s = 0;
        const double ns = ns_per_op(1u << 16, [&](std::uint64_t) {
          s += hot.read().v;
        });
        keep(s);
        return ns;
      },
      [&](int) {
        const Node n = hot.read();
        keep(n);
      });
  const auto attempt = [&](int pid) {
    const Node cur = hot.read();
    hot.compare_exchange(pid, cur, Node{cur.seq + 1, cur.v + 1});
  };
  l.casvalue_cas_contended_ns = contended(
      threads,
      [&] { return ns_per_op(1u << 16, [&](std::uint64_t) { attempt(0); }); },
      attempt);

  apram::rt::reclaim::VersionArena<std::int64_t> arena(1, 7);
  l.acquire_release_ns = ns_per_op(1u << 18, [&](std::uint64_t) {
    const auto ref = arena.acquire();
    sink += arena.get(ref);
    arena.release(ref);
  });
  keep(sink);

  RtBackend::Mem mem(kSoloProcs);
  apram::farray::FArray<RtBackend, std::int64_t,
                        apram::SumCombiner<std::int64_t>>
      fa(mem, kSoloProcs);
  l.farray_write_ns = ns_per_op(1u << 15, [&](std::uint64_t i) {
    fa.write(RtBackend::Ctx{0}, static_cast<std::int64_t>(i)).get();
  });
  l.farray_read_f_ns = ns_per_op(1u << 18, [&](std::uint64_t) {
    sink += fa.read_f(RtBackend::Ctx{0}).get();
  });
  keep(sink);

  std::vector<std::uint32_t> samples;
  samples.reserve(1u << 16);
  l.sample_cost_ns = ns_per_op(1u << 12, [&](std::uint64_t) {
    const std::uint64_t t0 = now_ns();
    samples.push_back(static_cast<std::uint32_t>(now_ns() - t0));
  });
  keep(samples);
  return l;
}

namespace {

struct Triple {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t cas = 0;
  bool operator==(const Triple&) const = default;
};

// Reads/writes/cas counters that Mem::attach_obs registered under `name`.
class Probe {
 public:
  Probe(apram::obs::Registry& reg, const std::string& name)
      : reads_(reg.counter("rt." + name + ".reads")),
        writes_(reg.counter("rt." + name + ".writes")),
        cas_(reg.counter("rt." + name + ".cas")) {}

  Triple now() const { return {reads_.value(), writes_.value(), cas_.value()}; }

 private:
  const apram::obs::Counter& reads_;
  const apram::obs::Counter& writes_;
  const apram::obs::Counter& cas_;
};

std::string describe(const Triple& t) {
  return std::to_string(t.reads) + "r/" + std::to_string(t.writes) + "w/" +
         std::to_string(t.cas) + "cas";
}

}  // namespace

Solo run_solo(const Ladder& l) {
  using MaxL = apram::MaxLattice<std::int64_t>;
  constexpr int n = kSoloProcs;
  const auto h = static_cast<std::uint64_t>(apram::farray::farray_height(n));
  Solo s;

  // ---- exact access counts, op by op, on probed instances -------------
  apram::obs::Registry reg;
  const auto expect = [&](const char* op, const Probe& p, auto&& call,
                          Triple want) {
    const Triple before = p.now();
    call();
    const Triple after = p.now();
    const Triple got{after.reads - before.reads, after.writes - before.writes,
                     after.cas - before.cas};
    if (!(got == want) && s.counts_exact) {
      s.counts_exact = false;
      s.mismatch = std::string(op) + ": got " + describe(got) +
                   ", closed form " + describe(want);
    }
  };
  const Triple update_form{3 * h, 1, h};
  {
    apram::snapshot::TreeScanRT<MaxL> tree(n);
    tree.attach_obs(reg, "tree");
    const Probe p(reg, "tree");
    for (std::int64_t k = 0; k < 64; ++k) {
      expect("tree update", p, [&] { tree.update(0, k); }, update_form);
      expect("tree scan", p, [&] { (void)tree.scan(0); }, Triple{1, 0, 0});
    }
  }
  {
    apram::PolylogQueueRT q(n);
    q.attach_obs(reg, "queue");
    const Probe p(reg, "queue");
    for (std::int64_t k = 0; k < 64; ++k) {
      expect("queue enqueue", p, [&] { q.enqueue(0, k); }, update_form);
      expect("queue dequeue", p, [&] { (void)q.dequeue(0); },
             Triple{3 * h + 1, 1, h});
    }
  }
  apram::universal2::Counter2RT::Config fast_only;
  fast_only.help_period = 0;  // the rep's own cost: 1 read + 1 CAS
  {
    apram::universal2::Counter2RT c(n, fast_only);
    c.attach_obs(reg, "u2");
    const Probe p(reg, "u2");
    for (int k = 0; k < 64; ++k) {
      expect("u2 inc", p, [&] { (void)c.inc(0); }, Triple{1, 0, 1});
    }
  }

  // ---- solo timings on unprobed instances ------------------------------
  std::int64_t sink = 0;
  {
    apram::snapshot::TreeScanRT<MaxL> tree(n);
    s.tree_update_ns = ns_per_op(1u << 14, [&](std::uint64_t i) {
      tree.update(0, static_cast<std::int64_t>(i));
    });
    s.tree_scan_ns = ns_per_op(1u << 17, [&](std::uint64_t) {
      sink += tree.scan(0);
    });
  }
  {
    // Enqueue a batch, then dequeue it, on a fresh queue per repetition so
    // the root chain (which keeps every op) stays the same length.
    std::vector<double> enq;
    std::vector<double> deq;
    constexpr std::uint64_t kBatch = 1u << 12;
    for (int r = 0; r < kReps; ++r) {
      apram::PolylogQueueRT q(n);
      std::uint64_t t0 = now_ns();
      for (std::uint64_t k = 0; k < kBatch; ++k) {
        q.enqueue(0, static_cast<std::int64_t>(k));
      }
      enq.push_back(static_cast<double>(now_ns() - t0) / kBatch);
      t0 = now_ns();
      for (std::uint64_t k = 0; k < kBatch; ++k) sink += q.dequeue(0);
      deq.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    }
    s.enqueue_ns = median(enq);
    s.dequeue_ns = median(deq);
  }
  {
    apram::universal2::Counter2RT c(n, fast_only);
    s.u2_inc_ns = ns_per_op(1u << 15, [&](std::uint64_t) {
      sink += c.inc(0);
    });
  }
  keep(sink);

  // ---- cost model: closed-form accesses x ladder cost per access -------
  // A solo update/enqueue: 1 leaf write; per level 1 node read + 2 child
  // reads (leaves at the bottom level, nodes above) + 1 CAS.
  const double hd = static_cast<double>(h);
  const double update_model = l.swmr_write_ns + hd * l.casvalue_read_ns +
                              2.0 * l.swmr_read_ns +
                              2.0 * (hd - 1.0) * l.casvalue_read_ns +
                              hd * l.casvalue_cas_ns;
  const double scan_model = l.casvalue_read_ns;
  s.update_model_ratio = s.tree_update_ns / update_model;
  s.scan_model_ratio = s.tree_scan_ns / scan_model;
  s.queue_model_ratio = (s.enqueue_ns + s.dequeue_ns) /
                        (2.0 * update_model + l.casvalue_read_ns);
  s.u2_model_ratio = s.u2_inc_ns / (l.casvalue_read_ns + l.casvalue_cas_ns);
  return s;
}

}  // namespace perfbench
