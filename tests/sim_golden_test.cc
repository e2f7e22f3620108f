/**
 * @file
 * Byte-for-byte pins of wlcrc_sim runs on device paths no figure
 * bench reaches: the Verify-n-Restore repair loop (--vnr) and
 * non-integer state energies (--s3 153.3 --s4 273.7), which take the
 * write unit's ascending per-cell energy sum instead of its exact
 * per-state sum. The JSON case prints every mean at full precision
 * and adds per-cell wear, so a last-bit change in any energy or a
 * moved disturbance draw shows. Its "simd" field names the dispatch
 * kernel, not a result, and is dropped before comparing.
 *
 * The goldens in tests/golden/sim_*.{csv,json} were captured before
 * the branch-free device write path landed. Refresh after an
 * intended model change with WLCRC_UPDATE_GOLDEN=1.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "subprocess.hh"

namespace
{

using namespace wlcrc;

struct SimCase
{
    const char *golden; //!< file under tests/golden/
    const char *args;   //!< wlcrc_sim arguments
};

const std::string schemes = " --scheme Baseline --scheme FNW "
                            "--scheme 6cosets --scheme WLC+4cosets "
                            "--scheme WLCRC-16 --no-cache";

const SimCase cases[] = {
    {"sim_vnr.csv", "--workload lesl --lines 2000 --vnr"},
    {"sim_fractional_energy.csv",
     "--workload lesl --lines 2000 --s3 153.3 --s4 273.7"},
    {"sim_vnr_fractional.json",
     "--workload milc --lines 1500 --shards 2 --vnr --s3 153.3 "
     "--s4 273.7 --wear 100000 --json"},
};

TEST(WlcrcSimGolden, VnrAndFractionalEnergyRunsMatchGolden)
{
    const std::regex simdField("\"simd\":\"[a-z0-9]+\",");
    for (const SimCase &c : cases) {
        int rc = -1;
        const std::string out = std::regex_replace(
            test::captureStdout(std::string(WLCRC_SIM_BIN) + " " +
                                    c.args + schemes + " 2>/dev/null",
                                rc),
            simdField, "");
        ASSERT_EQ(rc, 0) << c.args;
        const std::string path =
            std::string(WLCRC_GOLDEN_DIR) + "/" + c.golden;
        if (std::getenv("WLCRC_UPDATE_GOLDEN")) {
            std::ofstream(path, std::ios::binary) << out;
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
        std::ostringstream want;
        want << in.rdbuf();
        EXPECT_EQ(out, want.str())
            << c.golden << " drifted (wlcrc_sim " << c.args << ")";
    }
}

} // namespace
