/**
 * @file
 * The FlipMin, DIN and WLCRC (8, 16, 32, 16-da) encode paths and
 * Bch::parity against their serial references in
 * tests/support/coset/encode_reference.hh, bit for bit: parity bits
 * over every field and payload length a Bch can take, TargetLines
 * under every SIMD kernel and under the recompute-per-fetch scoring
 * hook (random lines and tie-heavy ones, where first-wins order
 * decides every pick), and whole ReplayResults with and without
 * Verify-n-Restore.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "coset/encode_reference.hh"
#include "pcm/disturbance.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using pcm::State;
using simd::Kernel;

std::vector<Kernel>
availableKernels()
{
    std::vector<Kernel> out;
    for (const Kernel k : {Kernel::Scalar, Kernel::Avx2, Kernel::Neon})
        if (simd::kernelAvailable(k))
            out.push_back(k);
    return out;
}

struct KernelScope
{
    explicit KernelScope(Kernel k) : prev(simd::activeKernel())
    {
        simd::setKernel(k);
    }
    ~KernelScope() { simd::setKernel(prev); }
    Kernel prev;
};

struct ScalarScoringScope
{
    ScalarScoringScope()
    {
        coset::LineCodec::setScalarScoringForTest(true);
    }
    ~ScalarScoringScope()
    {
        coset::LineCodec::setScalarScoringForTest(false);
    }
};

/** Bit bytes of @p n random bits, all zeros or all ones by @p fill. */
std::vector<uint8_t>
payload(Rng &rng, unsigned n, int fill)
{
    std::vector<uint8_t> bits(n);
    for (auto &b : bits)
        b = fill < 0 ? static_cast<uint8_t>(rng.next() & 1)
                     : static_cast<uint8_t>(fill);
    return bits;
}

void
expectSameParity(const ecc::Bch &bch, const std::vector<uint8_t> &data,
                 const std::string &what)
{
    std::vector<uint8_t> want(bch.codewordBits());
    coset::reference::bchEncode(bch, data.data(), want.data());
    ASSERT_EQ(bch.encode(data), want) << what;

    std::vector<uint64_t> words((data.size() + 63) / 64 + 1, 0);
    for (unsigned j = 0; j < data.size(); ++j)
        words[j / 64] |= uint64_t{data[j]} << (j % 64);
    // Bits past the payload are ignored: set them all.
    if (data.size() % 64)
        words[data.size() / 64] |= ~uint64_t{0} << (data.size() % 64);
    words.back() = ~uint64_t{0};
    const uint32_t p = bch.parity(words.data());
    for (unsigned i = 0; i < bch.parityBits(); ++i)
        ASSERT_EQ(p >> i & 1, want[bch.dataBits() + i])
            << what << " parity bit " << i;
    if (bch.parityBits() < 32) {
        ASSERT_EQ(p >> bch.parityBits(), 0u) << what;
    }
}

TEST(BchReference, ParityMatchesSerialDivisionForEveryConfig)
{
    Rng rng(0xbc4);
    // ecc_test's codes, then every field the table encoder handles
    // with both error capabilities, at short, byte-edge and maximal
    // payload lengths.
    std::vector<ecc::Bch> codes;
    codes.emplace_back(10, 2, 492);
    codes.emplace_back(4, 2, 7);
    for (unsigned m = 3; m <= 10; ++m) {
        for (unsigned t = 1; t <= 2; ++t) {
            const unsigned n = (1u << m) - 1;
            const unsigned parity = ecc::Bch(m, t, 1).parityBits();
            if (parity >= n)
                continue;
            const unsigned maxData = n - parity;
            for (unsigned len : {1u, 7u, 8u, 9u, 16u, 63u, 64u, 65u,
                                 maxData - 1, maxData})
                if (len >= 1 && len <= maxData)
                    codes.emplace_back(m, t, len);
        }
    }
    for (const ecc::Bch &bch : codes) {
        const std::string what =
            "t=" + std::to_string(bch.t()) +
            " data=" + std::to_string(bch.dataBits()) +
            " parity=" + std::to_string(bch.parityBits());
        expectSameParity(bch, payload(rng, bch.dataBits(), 0),
                         what + " zeros");
        expectSameParity(bch, payload(rng, bch.dataBits(), 1),
                         what + " ones");
        for (int trial = 0; trial < 40; ++trial)
            expectSameParity(bch, payload(rng, bch.dataBits(), -1),
                             what + " random");
    }
}

TEST(BchReference, EveryDinPayloadBitIsCovered)
{
    // A single set bit anywhere in the 492-bit payload: the parity
    // of each unit vector is one table path of the LFSR.
    const ecc::Bch bch(10, 2, 492);
    for (unsigned j = 0; j < bch.dataBits(); ++j) {
        std::vector<uint8_t> data(bch.dataBits(), 0);
        data[j] = 1;
        expectSameParity(bch, data, "bit " + std::to_string(j));
    }
}

/**
 * Pattern-biased payload: a random line, or zero, all-one,
 * repeated-byte, small and random 32-bit words, so DIN sees both
 * compressible and raw lines.
 */
Line512
patternLine(Rng &rng)
{
    Line512 l;
    if (rng.chance(0.25)) {
        for (unsigned w = 0; w < lineWords; ++w)
            l.setWord(w, rng.next());
        return l;
    }
    const unsigned bias = static_cast<unsigned>(rng.nextBelow(4));
    for (unsigned w = 0; w < lineWords; ++w) {
        uint64_t word = 0;
        for (unsigned half = 0; half < 2; ++half) {
            uint64_t v;
            switch (rng.nextBelow(4 + bias)) {
            case 0:
                v = rng.next() & 0xffffffff;
                break;
            case 1:
                v = 0xffffffff;
                break;
            case 2:
                v = (rng.next() & 0xff) * 0x01010101u;
                break;
            case 3:
                v = rng.next() & 0xf;
                break;
            default:
                v = 0;
            }
            word |= v << (32 * half);
        }
        l.setWord(w, word);
    }
    return l;
}

std::vector<State>
randomStored(Rng &rng, unsigned cells)
{
    std::vector<State> stored(cells);
    const bool uniform = rng.chance(0.2);
    const State s = pcm::stateFromIndex(
        static_cast<unsigned>(rng.nextBelow(4)));
    for (auto &c : stored)
        c = uniform ? s
                    : pcm::stateFromIndex(
                          static_cast<unsigned>(rng.next() & 3));
    return stored;
}

void
expectSameTarget(const pcm::TargetLine &got,
                 const pcm::TargetLine &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(got.auxStart(), want.auxStart()) << what;
    for (unsigned i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << " cell " << i;
        ASSERT_EQ(got.aux(i), want.aux(i)) << what << " cell " << i;
    }
}

class EncodeReference : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EncodeReference, TargetLinesMatchUnderEveryKernelAndHook)
{
    const std::string scheme = GetParam();
    // The paper's energies, and fractional ones under which any
    // change of summation order would show in the low bits.
    for (const pcm::EnergyModel &energy :
         {pcm::EnergyModel(),
          pcm::EnergyModel(0.1, {0.0, 0.7, 3.3, 11.9})}) {
        const auto fast = core::makeCodec(scheme, energy);
        const auto ref = coset::reference::makeReference(scheme, energy);
        Rng rng(0xe4c0de);
        unsigned compressed = 0;
        for (int iter = 0; iter < 400; ++iter) {
            const Line512 data = patternLine(rng);
            const auto stored = randomStored(rng, fast->cellCount());
            pcm::TargetLine want;
            {
                KernelScope scalar(Kernel::Scalar);
                want = ref->encode(data, stored);
            }
            compressed += want[lineSymbols] == State::S1;
            const std::string what =
                scheme + " iter " + std::to_string(iter);
            for (const Kernel k : availableKernels()) {
                KernelScope scope(k);
                expectSameTarget(fast->encode(data, stored), want,
                                 what + " " + simd::kernelName(k));
                ScalarScoringScope hook;
                expectSameTarget(fast->encode(data, stored), want,
                                 what + " hook");
                expectSameTarget(ref->encode(data, stored), want,
                                 what + " reference hook");
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
        if (scheme == "DIN") {
            // Both formats must have been exercised.
            EXPECT_GT(compressed, 40u);
            EXPECT_LT(compressed, 360u);
        }
    }
}

void
expectSameStat(const stats::RunningStat &a, const stats::RunningStat &b,
               const std::string &what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.variance(), b.variance()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
}

/** Replays gcc and lesl streams through @p scheme's production codec
 *  under every kernel and through its reference under the scalar
 *  kernel; the ReplayResults must be equal. */
void
expectSameReplays(const std::string &scheme, bool vnr)
{
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const auto fast = core::makeCodec(scheme, energy);
    const auto ref = coset::reference::makeReference(scheme, energy);
    for (const char *profile : {"gcc", "lesl"}) {
        trace::TraceSynthesizer synth(
            trace::WorkloadProfile::byName(profile), 31);
        std::vector<trace::WriteTransaction> txns;
        for (int i = 0; i < 1500; ++i)
            txns.push_back(synth.next());

        trace::ReplayResult want;
        {
            KernelScope scalar(Kernel::Scalar);
            trace::Replayer rep(*ref, unit, 7, vnr);
            for (const auto &t : txns)
                rep.step(t);
            want = rep.result();
        }
        if (scheme != "FlipMin") {
            EXPECT_GT(want.compressedWrites, 0u) << profile;
        }
        for (const Kernel k : availableKernels()) {
            KernelScope scope(k);
            trace::Replayer rep(*fast, unit, 7, vnr);
            std::size_t at = 0;
            rep.runBatch([&](trace::WriteTransaction &slot) {
                if (at >= txns.size())
                    return false;
                slot = txns[at++];
                return true;
            });
            const trace::ReplayResult got = rep.result();
            const std::string what = scheme + "/" + profile + "/" +
                                     simd::kernelName(k) +
                                     (vnr ? "" : "/no-vnr");
            expectSameStat(got.energyPj, want.energyPj, what);
            expectSameStat(got.dataEnergyPj, want.dataEnergyPj, what);
            expectSameStat(got.auxEnergyPj, want.auxEnergyPj, what);
            expectSameStat(got.updatedCells, want.updatedCells, what);
            expectSameStat(got.dataUpdated, want.dataUpdated, what);
            expectSameStat(got.auxUpdated, want.auxUpdated, what);
            expectSameStat(got.disturbErrors, want.disturbErrors, what);
            expectSameStat(got.dataDisturbed, want.dataDisturbed, what);
            expectSameStat(got.auxDisturbed, want.auxDisturbed, what);
            EXPECT_EQ(got.writes, want.writes) << what;
            EXPECT_EQ(got.compressedWrites, want.compressedWrites)
                << what;
            EXPECT_EQ(got.vnrIterations, want.vnrIterations) << what;
            EXPECT_EQ(got.vnrCapped, want.vnrCapped) << what;
        }
    }
}

TEST_P(EncodeReference, ReplayResultsMatchUnderEveryKernel)
{
    expectSameReplays(GetParam(), true);
}

TEST_P(EncodeReference, ReplayResultsMatchWithoutVnr)
{
    expectSameReplays(GetParam(), false);
}

/** Encodes @p data over @p stored with the production codec under
 *  every kernel and the scoring hook; each must match @p ref. */
void
expectSameEncode(const coset::LineCodec &fast,
                 const coset::LineCodec &ref, const Line512 &data,
                 const std::vector<State> &stored,
                 const std::string &what)
{
    pcm::TargetLine want;
    {
        KernelScope scalar(Kernel::Scalar);
        want = ref.encode(data, stored);
    }
    for (const Kernel k : availableKernels()) {
        KernelScope scope(k);
        expectSameTarget(fast.encode(data, stored), want,
                         what + " " + simd::kernelName(k));
        ScalarScoringScope hook;
        expectSameTarget(fast.encode(data, stored), want,
                         what + " hook");
    }
}

TEST_P(EncodeReference, TieHeavyLinesMatch)
{
    // Lines where candidates cost the same, so the first-wins order
    // of every comparison decides the picks: all-zero words over an
    // all-S1 line (every combo costs 0), uniform stored lines, and
    // lines that already hold their own encoding (re-writing a line
    // unchanged).
    const std::string scheme = GetParam();
    for (const pcm::EnergyModel &energy :
         {pcm::EnergyModel(),
          pcm::EnergyModel(0.1, {0.0, 0.7, 3.3, 11.9})}) {
        const auto fast = core::makeCodec(scheme, energy);
        const auto ref = coset::reference::makeReference(scheme, energy);
        const unsigned cells = fast->cellCount();
        Rng rng(0x7135);
        std::vector<Line512> lines(2);
        lines[1].setWord(0, ~uint64_t{0});
        for (unsigned i = 0; i < 20; ++i)
            lines.push_back(patternLine(rng));
        for (unsigned i = 0; i < lines.size(); ++i) {
            const std::string what =
                scheme + " line " + std::to_string(i);
            for (unsigned s = 0; s < pcm::numStates; ++s)
                expectSameEncode(
                    *fast, *ref, lines[i],
                    std::vector<State>(cells, pcm::stateFromIndex(s)),
                    what + " uniform S" + std::to_string(s + 1));
            const pcm::TargetLine t = ref->encode(
                lines[i], std::vector<State>(cells, State::S1));
            std::vector<State> same(cells);
            for (unsigned c = 0; c < cells; ++c)
                same[c] = t[c];
            expectSameEncode(*fast, *ref, lines[i], same,
                             what + " stored == target");
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, EncodeReference,
                         ::testing::Values("FlipMin", "DIN", "WLCRC-8",
                                           "WLCRC-16", "WLCRC-32",
                                           "WLCRC-16-da"));

} // namespace
