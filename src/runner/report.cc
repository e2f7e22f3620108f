#include "report.hh"

#include <algorithm>
#include <stdexcept>

#include "common/csv.hh"
#include "runner/json_mini.hh"
#include "runner/spec_codec.hh"

namespace wlcrc::runner
{

namespace
{

double
compressedPct(const trace::ReplayResult &r)
{
    return 100.0 * static_cast<double>(r.compressedWrites) /
           static_cast<double>(std::max<uint64_t>(1, r.writes));
}

double
vnrPerWrite(const trace::ReplayResult &r)
{
    return static_cast<double>(r.vnrIterations) /
           static_cast<double>(std::max<uint64_t>(1, r.writes));
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += "\\u00";
            const char *hex = "0123456789abcdef";
            out += hex[(c >> 4) & 0xf];
            out += hex[c & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

void
CsvReporter::write(std::ostream &os,
                   const std::vector<ExperimentResult> &results) const
{
    CsvTable table({"scheme", "source", "lines", "seed", "shards",
                    "status", "writes", "energy_pJ", "updated_cells",
                    "disturb_errors", "compressed_pct",
                    "vnr_per_write", "max_cell_wear",
                    "projected_lifetime", "leveler",
                    "writes_to_failure", "extra_writes"});
    for (const auto &r : results) {
        table.newRow();
        table.add(r.spec.scheme);
        table.add(r.spec.sourceName());
        // `lines` is ignored for pre-gathered streams; the real
        // count is the writes column.
        if (r.spec.source)
            table.add("-");
        else
            table.add(r.spec.lines);
        table.add(r.spec.seed);
        table.add(r.spec.shards);
        table.add(r.ok ? "ok" : "error");
        table.add(r.replay.writes);
        table.add(r.replay.energyPj.mean());
        table.add(r.replay.updatedCells.mean());
        table.add(r.replay.disturbErrors.mean());
        table.add(compressedPct(r.replay));
        table.add(vnrPerWrite(r.replay));
        if (r.spec.device.wearEndurance && r.ok) {
            table.add(r.wear.maxCellWrites);
            table.add(r.projectedLifetime);
        } else {
            table.add("-");
            table.add("-");
        }
        table.add(wearlevel::formatLeveler(r.spec.leveler));
        if (r.spec.lifetime && r.ok && r.lifetime.died)
            table.add(r.lifetime.writesToFailure);
        else
            table.add("-");
        if ((r.spec.lifetime || r.spec.leveler.active()) && r.ok)
            table.add(r.lifetime.extraWrites);
        else
            table.add("-");
    }
    table.write(os);
}

void
JsonReporter::write(std::ostream &os,
                    const std::vector<ExperimentResult> &results)
    const
{
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << "  ";
        writeResultObject(os, results[i]);
        os << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

void
writeResultObject(std::ostream &os, const ExperimentResult &r)
{
    os << "{\"report_version\":" << kReportVersion
       << ",\"scheme\":\"" << jsonEscape(r.spec.scheme)
       << "\",\"source\":\"" << jsonEscape(r.spec.sourceName())
       << "\"";
    if (!r.spec.source)
        os << ",\"lines\":" << r.spec.lines;
    os << ",\"seed\":" << r.spec.seed
       << ",\"shards\":" << r.spec.shards << ",\"ok\":"
       << (r.ok ? "true" : "false");
    if (!r.ok) {
        os << ",\"error\":\"" << jsonEscape(r.error) << "\"}";
        return;
    }
    if (!r.simdKernel.empty())
        os << ",\"simd\":\"" << jsonEscape(r.simdKernel) << "\"";
    const auto field = [&](const char *name, double v) {
        os << ",\"" << name << "\":" << formatDouble(v);
    };
    os << ",\"writes\":" << r.replay.writes
       << ",\"compressed_writes\":" << r.replay.compressedWrites
       << ",\"vnr_iterations\":" << r.replay.vnrIterations;
    // Only when set, so every result without a capped write (every
    // golden and cached entry) keeps its bytes.
    if (r.replay.vnrCapped)
        os << ",\"vnr_capped\":" << r.replay.vnrCapped;
    field("energy_pj", r.replay.energyPj.mean());
    field("data_energy_pj", r.replay.dataEnergyPj.mean());
    field("aux_energy_pj", r.replay.auxEnergyPj.mean());
    field("updated_cells", r.replay.updatedCells.mean());
    field("data_updated", r.replay.dataUpdated.mean());
    field("aux_updated", r.replay.auxUpdated.mean());
    field("disturb_errors", r.replay.disturbErrors.mean());
    field("data_disturbed", r.replay.dataDisturbed.mean());
    field("aux_disturbed", r.replay.auxDisturbed.mean());
    field("compressed_pct", compressedPct(r.replay));
    field("vnr_per_write", vnrPerWrite(r.replay));
    if (r.spec.device.wearEndurance) {
        os << ",\"max_cell_wear\":" << r.wear.maxCellWrites
           << ",\"avg_cell_wear\":"
           << formatDouble(r.wear.avgCellWrites)
           << ",\"touched_cells\":" << r.wear.touchedCells
           << ",\"total_cell_writes\":" << r.wear.totalWrites
           << ",\"wear_cov\":" << formatDouble(r.wear.covCellWrites)
           << ",\"projected_lifetime\":" << r.projectedLifetime;
    }
    // Gated on the same spec fields readResultObject() checks, so a
    // stale cache entry written before these fields existed fails to
    // parse (= cache miss) instead of yielding a zeroed lifetime.
    if (r.spec.lifetime || r.spec.leveler.active()) {
        const auto &lt = r.lifetime;
        os << ",\"leveler\":\""
           << jsonEscape(wearlevel::formatLeveler(r.spec.leveler))
           << "\",\"lifetime_died\":" << (lt.died ? "true" : "false")
           << ",\"demand_writes\":" << lt.demandWrites
           << ",\"writes_to_failure\":" << lt.writesToFailure
           << ",\"extra_writes\":" << lt.extraWrites
           << ",\"remap_events\":" << lt.remapEvents
           << ",\"table_bytes\":" << lt.tableBytes
           << ",\"failed_line\":" << lt.failedLine
           << ",\"failed_cell\":" << lt.failedCell
           << ",\"dead_cells\":" << lt.deadCells
           << ",\"lifetime_max_cell_wear\":" << lt.maxCellWear
           << ",\"final_wear_cov\":"
           << formatDouble(lt.finalWearCov)
           << ",\"cov_sample_every\":" << lt.covSampleEvery
           << ",\"wear_cov_timeline\":[";
        for (std::size_t i = 0; i < lt.wearCovTimeline.size(); ++i)
            os << (i ? "," : "")
               << formatDouble(lt.wearCovTimeline[i]);
        os << "]";
    }
    os << "}";
}

ExperimentResult
readResultObject(const JsonValue &obj, ExperimentSpec spec)
{
    if (obj.at("report_version").asU64() !=
        static_cast<uint64_t>(kReportVersion)) {
        throw std::runtime_error(
            "result object has report_version " +
            obj.at("report_version").text + ", this binary writes " +
            std::to_string(kReportVersion));
    }
    ExperimentResult res;
    res.spec = std::move(spec);
    res.ok = obj.at("ok").asBool();
    if (!res.ok) {
        res.error = obj.at("error").asString();
        return res;
    }
    // Optional: absent in results cached before the SIMD kernels
    // existed (the kernel never changes the numbers, so old entries
    // stay valid).
    if (obj.has("simd"))
        res.simdKernel = obj.at("simd").asString();
    res.replay.writes = obj.at("writes").asU64();
    res.replay.compressedWrites =
        obj.at("compressed_writes").asU64();
    res.replay.vnrIterations = obj.at("vnr_iterations").asU64();
    if (obj.has("vnr_capped"))
        res.replay.vnrCapped = obj.at("vnr_capped").asU64();
    // A one-sample stat reproduces the stored mean exactly — and
    // mean() is the only moment the reporters (and benches) read
    // from a merged result.
    const auto stat = [&](stats::RunningStat &s, const char *name) {
        s.add(obj.at(name).asDouble());
    };
    stat(res.replay.energyPj, "energy_pj");
    stat(res.replay.dataEnergyPj, "data_energy_pj");
    stat(res.replay.auxEnergyPj, "aux_energy_pj");
    stat(res.replay.updatedCells, "updated_cells");
    stat(res.replay.dataUpdated, "data_updated");
    stat(res.replay.auxUpdated, "aux_updated");
    stat(res.replay.disturbErrors, "disturb_errors");
    stat(res.replay.dataDisturbed, "data_disturbed");
    stat(res.replay.auxDisturbed, "aux_disturbed");
    if (res.spec.device.wearEndurance) {
        res.wear.maxCellWrites = obj.at("max_cell_wear").asU64();
        res.wear.avgCellWrites =
            obj.at("avg_cell_wear").asDouble();
        res.wear.touchedCells = obj.at("touched_cells").asU64();
        res.wear.totalWrites =
            obj.at("total_cell_writes").asU64();
        res.wear.covCellWrites = obj.at("wear_cov").asDouble();
        res.projectedLifetime =
            obj.at("projected_lifetime").asU64();
    }
    if (res.spec.lifetime || res.spec.leveler.active()) {
        auto &lt = res.lifetime;
        lt.died = obj.at("lifetime_died").asBool();
        lt.demandWrites = obj.at("demand_writes").asU64();
        lt.writesToFailure = obj.at("writes_to_failure").asU64();
        lt.extraWrites = obj.at("extra_writes").asU64();
        lt.remapEvents = obj.at("remap_events").asU64();
        lt.tableBytes = obj.at("table_bytes").asU64();
        lt.failedLine = obj.at("failed_line").asU64();
        lt.failedCell = static_cast<unsigned>(
            obj.at("failed_cell").asU64());
        lt.deadCells = obj.at("dead_cells").asU64();
        lt.maxCellWear =
            obj.at("lifetime_max_cell_wear").asU64();
        lt.finalWearCov = obj.at("final_wear_cov").asDouble();
        lt.covSampleEvery = obj.at("cov_sample_every").asU64();
        const JsonValue &tl = obj.at("wear_cov_timeline");
        if (tl.type != JsonValue::Type::Array)
            throw std::runtime_error(
                "wear_cov_timeline is not an array");
        lt.wearCovTimeline.clear();
        for (const auto &v : tl.array)
            lt.wearCovTimeline.push_back(v.asDouble());
    }
    return res;
}

} // namespace wlcrc::runner
