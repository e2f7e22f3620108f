/**
 * @file
 * wlcrc_sim argument parsing end to end: every numeric flag is
 * parsed strictly. A malformed, negative or out-of-range value exits
 * 2 with the flag named, rather than running with 0 or a wrapped
 * value, and every spelling the parser accepts (decimal, 0x hex,
 * leading-0 octal, exponent doubles) means what it says.
 */

#include <gtest/gtest.h>

#include <string>

#include <sys/wait.h>

#include "subprocess.hh"

namespace
{

using namespace wlcrc;

const std::string base =
    std::string(WLCRC_SIM_BIN) + " --workload lesl --lines 50";

TEST(WlcrcSimCli, MalformedNumbersExitTwoNamingTheFlag)
{
    struct Bad
    {
        const char *flag;
        const char *value;
    };
    const Bad cases[] = {
        {"--lines", "abc"},
        {"--lines", ""},
        {"--lines", "-1"},
        {"--lines", "12abc"},
        {"--lines", "99999999999999999999"},
        {"--seed", "0x"},
        {"--seed", "-3"},
        {"--jobs", "4294967296"},
        {"--jobs", "two"},
        {"--shards", "1.5"},
        {"--wear", "1e6"},
        {"--s3", "foo"},
        {"--s3", "-1"},
        {"--s4", "nan"},
        {"--s4", "inf"},
        {"--decode-ahead", "2x"},
        {"--listen", "0"},
        {"--listen", "65536"},
        {"--workers", "0"},
        {"--workers", "4097"},
        {"--reissue-sec", "0"},
        {"--reissue-sec", "1s"},
    };
    for (const auto &c : cases) {
        int rc = -1;
        const std::string err = test::captureStdout(
            base + " " + c.flag + " '" + c.value +
                "' 2>&1 >/dev/null",
            rc);
        EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 2)
            << c.flag << " '" << c.value << "': status " << rc;
        EXPECT_NE(err.find(std::string(c.flag) + " needs"),
                  std::string::npos)
            << c.flag << " '" << c.value << "': " << err;
    }
}

TEST(WlcrcSimCli, EquivalentSpellingsProduceIdenticalOutput)
{
    struct Same
    {
        const char *a;
        const char *b;
    };
    const Same cases[] = {
        {"--lines 50", "--lines 0x32"},
        {"--seed 8", "--seed 010"},
        {"--s3 307 --s4 547", ""}, // the defaults
        {"--s3 307.0", "--s3 3.07e2"},
        {"--shards 2 --jobs 2", "--shards 0x2 --jobs 1"},
        {"--wear 1000", "--wear 0x3e8"},
        {"--decode-ahead 0", "--decode-ahead 4"},
    };
    for (const auto &c : cases) {
        int rcA = -1, rcB = -1;
        const std::string a = test::captureStdout(
            base + " " + c.a + " 2>/dev/null", rcA);
        const std::string b = test::captureStdout(
            base + " " + c.b + " 2>/dev/null", rcB);
        EXPECT_EQ(rcA, 0) << c.a;
        EXPECT_EQ(rcB, 0) << c.b;
        EXPECT_FALSE(a.empty()) << c.a;
        EXPECT_EQ(a, b) << "'" << c.a << "' vs '" << c.b << "'";
    }
}

} // namespace
