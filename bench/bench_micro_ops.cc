/**
 * @file
 * Google-benchmark micro-benchmarks of moatsim's hot paths: per-ACT
 * costs of the bank, security oracle, MOAT logic, and the full
 * command-level sub-channel. Useful when tuning the simulator itself.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "dram/bank.hh"
#include "dram/security.hh"
#include "mitigation/registry.hh"
#include "sim/sweep.hh"
#include "subchannel/subchannel.hh"
#include "workload/spec.hh"

using namespace moatsim;

namespace
{

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_BankActivate(benchmark::State &state)
{
    dram::TimingParams t;
    dram::Bank bank(t);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bank.activate(static_cast<RowId>(rng.below(65536))));
}
BENCHMARK(BM_BankActivate);

void
BM_SecurityOnActivate(benchmark::State &state)
{
    dram::SecurityMonitor mon(65536, 2);
    Rng rng(3);
    for (auto _ : state)
        mon.onActivate(static_cast<RowId>(rng.below(65536)));
}
BENCHMARK(BM_SecurityOnActivate);

void
BM_SubChannelActivateNull(benchmark::State &state)
{
    subchannel::SubChannelConfig sc;
    sc.numBanks = static_cast<uint32_t>(state.range(0));
    subchannel::SubChannel ch(
        sc, mitigation::Registry::parse("null").factory());
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ch.activate(static_cast<BankId>(rng.below(ch.numBanks())),
                        static_cast<RowId>(rng.below(65536))));
    }
}
BENCHMARK(BM_SubChannelActivateNull)->Arg(1)->Arg(8)->Arg(32);

void
BM_SubChannelActivateMoat(benchmark::State &state)
{
    subchannel::SubChannelConfig sc;
    sc.numBanks = static_cast<uint32_t>(state.range(0));
    subchannel::SubChannel ch(
        sc, mitigation::Registry::parse("moat").factory());
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ch.activate(static_cast<BankId>(rng.below(ch.numBanks())),
                        static_cast<RowId>(rng.below(65536))));
    }
}
BENCHMARK(BM_SubChannelActivateMoat)->Arg(1)->Arg(32);

void
BM_SweepEngineCells(benchmark::State &state)
{
    sim::SweepConfig sc;
    sc.tracegen.banksSimulated = 4;
    sc.tracegen.numCores = 2;
    sc.tracegen.windowFraction = 0.005;
    sc.jobs = static_cast<unsigned>(state.range(0));
    const std::vector<sim::SweepCell> cells(
        8, {workload::findWorkload("x264"),
            mitigation::Registry::parse("moat"), abo::Level::L1});
    for (auto _ : state) {
        sim::SweepEngine engine(sc);
        benchmark::DoNotOptimize(engine.run(cells));
    }
}
BENCHMARK(BM_SweepEngineCells)->Arg(1)->Arg(4);

} // namespace
