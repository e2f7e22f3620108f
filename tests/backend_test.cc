/**
 * @file
 * Execution-backend equivalence: serial and thread execution of the
 * same grid must produce byte-identical reports — a backend
 * relocates work, it never changes results. The out-of-process
 * (remote) backend has its own suite in remote_backend_test.cc.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/report.hh"
#include "runner/runner.hh"

namespace
{

using namespace wlcrc;
using runner::ExperimentGrid;
using runner::ExperimentResult;
using runner::ExperimentRunner;
using runner::ExperimentSpec;
using runner::makeBackend;
using runner::RunnerOptions;
using runner::SerialBackend;
using runner::ThreadBackend;

std::string
csvOf(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    runner::CsvReporter().write(os, results);
    return os.str();
}

ExperimentGrid
smallGrid()
{
    return ExperimentGrid()
        .schemes({"Baseline", "WLCRC-16"})
        .workloads({"lesl", "gcc"})
        .lines(60)
        .seed(3)
        .shards(3);
}

std::string
runWith(std::shared_ptr<const runner::ExecutionBackend> backend,
        const ExperimentGrid &grid, unsigned jobs = 2)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.backend = std::move(backend);
    return csvOf(ExperimentRunner(opts).run(grid));
}

TEST(Backends, SerialAndThreadAreByteIdentical)
{
    const auto grid = smallGrid();
    const std::string thread =
        runWith(std::make_shared<ThreadBackend>(), grid);
    EXPECT_EQ(runWith(std::make_shared<SerialBackend>(), grid),
              thread);
    EXPECT_EQ(runWith(nullptr, grid), thread) << "default backend";
}

TEST(Backends, LifetimeSweepIsBackendAndJobCountInvariant)
{
    // A lifetime sweep (leveler x endurance over a workload) runs
    // single-sharded but must still be byte-identical wherever and
    // however parallel it executes (remote workers, whose JSON
    // report carries the full lifetime block, are pinned by
    // RemoteBackend.LeveledLifetimeSweepIsByteIdentical).
    const auto grid =
        ExperimentGrid()
            .schemes({"Baseline", "WLCRC-16"})
            .workloads({"gcc"})
            .lines(150)
            .seed(3)
            .levelers({wearlevel::parseLeveler("none"),
                       wearlevel::parseLeveler("start-gap:p8:r16")})
            .endurances({wearlevel::parseEndurance("80:0.2")})
            .lifetime();
    const std::string thread =
        runWith(std::make_shared<ThreadBackend>(), grid);
    EXPECT_EQ(runWith(std::make_shared<SerialBackend>(), grid),
              thread);
    EXPECT_EQ(runWith(std::make_shared<ThreadBackend>(), grid, 1),
              runWith(std::make_shared<ThreadBackend>(), grid, 4));
}

TEST(Backends, MakeBackendValidatesNames)
{
    EXPECT_EQ(makeBackend("serial")->name(),
              std::string("serial"));
    EXPECT_EQ(makeBackend("thread")->name(),
              std::string("thread"));
    // "process" is no backend: out-of-process runs are "remote".
    EXPECT_THROW(makeBackend("process"), std::invalid_argument);
    EXPECT_THROW(makeBackend("process", "/bin/true"),
                 std::invalid_argument);
    EXPECT_THROW(makeBackend("gpu"), std::invalid_argument);
}

} // namespace
