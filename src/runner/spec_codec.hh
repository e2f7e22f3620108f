/**
 * @file
 * Canonical ExperimentSpec serialization — the single stable text
 * form behind both scaling features of the runner:
 *
 *  - the worker protocol: the remote head sends canonicalSpec() in
 *    a WRK1 Work frame and wlcrc_worker parses it back with
 *    parseSpec(), so a grid point crosses the process boundary with
 *    no ambiguity;
 *  - result caching: specHash() is an FNV-1a 64 over the canonical
 *    text plus the trace content digest and the report version, so
 *    a cache entry is invalidated by any semantic change to the
 *    point — scheme, stream identity or content, seeds, shards,
 *    device knobs — and by report-format bumps (docs/caching.md).
 *
 * The canonical text is line-oriented `key=value`, fixed key order,
 * doubles printed shortest-round-trip (std::to_chars), so equal
 * specs serialize byte-identically on any host.
 */

#ifndef WLCRC_RUNNER_SPEC_CODEC_HH
#define WLCRC_RUNNER_SPEC_CODEC_HH

#include <cstdint>
#include <string>

#include "runner/experiment.hh"

namespace wlcrc::runner
{

/** First line of every canonical spec text. */
inline constexpr char specMagic[] = "wlcrc-spec-v1";

/**
 * Canonical text of @p spec. Hooks (codecFactory / customReplay) are
 * represented as presence markers — the closures themselves cannot
 * be serialized, which is exactly what processSerializable() and
 * cacheableSpec() gate on.
 */
std::string canonicalSpec(const ExperimentSpec &spec);

/**
 * Parse a canonicalSpec() text back into a runnable spec
 * (`stream=trace:<path>` re-opens the trace file).
 * @throws std::runtime_error on unknown keys, bad values, hook
 *         markers, or a missing/bad magic line.
 */
ExperimentSpec parseSpec(const std::string &text);

/**
 * True if @p spec can run in a remote worker process: no codec
 * factory, no custom replay, and any source is file-backed. When
 * false and @p why is non-null, *why names the blocker.
 */
bool processSerializable(const ExperimentSpec &spec,
                         std::string *why = nullptr);

/**
 * True if @p spec's result may be cached: stock replay (custom
 * replay hooks produce side effects a cache hit would skip) and a
 * hash that actually pins the codec (factory specs need cacheSalt).
 */
bool cacheableSpec(const ExperimentSpec &spec);

/**
 * Full cache-key text: canonicalSpec() plus a `digest=` line (when
 * sourced) and a `report_version=` line. specHash() hashes exactly
 * this string, and cache entries store it verbatim so a hash
 * collision degrades to a miss, never to a wrong result.
 */
std::string specKeyText(const ExperimentSpec &spec);

/** 64-bit FNV-1a of specKeyText() — the cache key. */
uint64_t specHash(const ExperimentSpec &spec);

/** specHash() in fixed-width lowercase hex (cache file stem). */
std::string specHashHex(const ExperimentSpec &spec);

/** Shortest round-trip decimal form of @p v (std::to_chars). */
std::string formatDouble(double v);

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_SPEC_CODEC_HH
