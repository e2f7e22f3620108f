#include "tracing.hh"

#include <stdexcept>
#include <utility>

#include "coset/codec.hh"
#include "wlcrc/factory.hh"

namespace e2e
{

using namespace wlcrc;

namespace
{

/**
 * The span of the shard task running on this thread, set by the
 * codec factory at task start and cleared by the progress callback
 * at task end (both run on the task's own worker thread).
 */
thread_local ShardSpan *currentSpan = nullptr;

/** Times the two encode entry points the replayer calls. */
class TracedCodec final : public coset::LineCodec
{
  public:
    TracedCodec(coset::CodecPtr inner, ShardSpan &span)
        : LineCodec(inner->energyModel()), inner_(std::move(inner)),
          span_(span)
    {}

    std::string name() const override { return inner_->name(); }
    unsigned cellCount() const override { return inner_->cellCount(); }

    void
    encodeInto(const Line512 &data, std::span<const pcm::State> stored,
               coset::EncodeScratch &scratch,
               pcm::TargetLine &target) const override
    {
        const auto t0 = Clock::now();
        inner_->encodeInto(data, stored, scratch, target);
        span_.primeSec += secondsBetween(t0, Clock::now());
        ++span_.primeCalls;
    }

    void
    encodeBatch(const EncodeJob *jobs, std::size_t count,
                coset::EncodeScratch &scratch) const override
    {
        const auto t0 = Clock::now();
        inner_->encodeBatch(jobs, count, scratch);
        span_.batchSec += secondsBetween(t0, Clock::now());
        ++span_.batchCalls;
        span_.batchLines += count;
    }

    Line512
    decode(const std::vector<pcm::State> &stored) const override
    {
        return inner_->decode(stored);
    }

  private:
    coset::CodecPtr inner_;
    ShardSpan &span_;
};

/** Times the consumer's waits in next(); counts blocks on close. */
class TracedCursor final : public tracefile::TraceCursor
{
  public:
    TracedCursor(std::unique_ptr<tracefile::TraceCursor> inner,
                 ShardSpan &span)
        : inner_(std::move(inner)), span_(span)
    {}

    ~TracedCursor() override
    {
        span_.blocksVisited += inner_->blocksVisited();
    }

    std::optional<trace::WriteTransaction>
    next() override
    {
        const auto t0 = Clock::now();
        auto t = inner_->next();
        span_.nextSec += secondsBetween(t0, Clock::now());
        if (t)
            ++span_.cursorRecords;
        return t;
    }

    std::size_t bufferBytes() const override
    {
        return inner_->bufferBytes();
    }
    uint64_t blocksVisited() const override
    {
        return inner_->blocksVisited();
    }

  private:
    std::unique_ptr<tracefile::TraceCursor> inner_;
    ShardSpan &span_;
};

/** Forwards everything; cursors it opens are TracedCursors. */
class TracedSource final : public tracefile::TransactionSource
{
  public:
    explicit TracedSource(
        std::shared_ptr<const tracefile::TransactionSource> inner)
        : inner_(std::move(inner))
    {
        setLabel(inner_->label());
    }

    std::unique_ptr<tracefile::TraceCursor>
    open(const tracefile::ShardFilter &filter) const override
    {
        if (!currentSpan)
            throw std::logic_error(
                "traced source opened outside a traced shard task");
        const auto t0 = Clock::now();
        auto cursor = inner_->open(filter);
        currentSpan->openSec += secondsBetween(t0, Clock::now());
        return std::make_unique<TracedCursor>(std::move(cursor),
                                              *currentSpan);
    }

    uint64_t records() const override { return inner_->records(); }
    std::string describe() const override { return inner_->describe(); }
    std::pair<uint64_t, uint64_t> addrBounds() const override
    {
        return inner_->addrBounds();
    }
    uint64_t contentDigest() const override
    {
        return inner_->contentDigest();
    }
    std::string filePath() const override { return inner_->filePath(); }

  private:
    std::shared_ptr<const tracefile::TransactionSource> inner_;
};

} // namespace

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

ShardSpan &
Tracer::openSpan(const std::string &point)
{
    auto span = std::make_unique<ShardSpan>();
    span->point = point;
    span->thread = std::this_thread::get_id();
    ShardSpan &ref = *span;
    {
        std::lock_guard lock(mutex_);
        spans_.push_back(std::move(span));
    }
    currentSpan = &ref;
    ref.start = Clock::now();
    return ref;
}

runner::ExperimentSpec
Tracer::decorate(const runner::ExperimentSpec &spec)
{
    runner::ExperimentSpec out = spec;
    out.codecFactory = [this, scheme = spec.scheme,
                        point = spec.label()](
                           const pcm::EnergyModel &energy) {
        ShardSpan &span = openSpan(point);
        return std::make_unique<TracedCodec>(
            core::makeCodec(scheme, energy), span);
    };
    if (spec.source)
        out.source = std::make_shared<TracedSource>(spec.source);
    return out;
}

runner::ProgressFn
Tracer::progress()
{
    return [this](const runner::RunProgress &p) {
        if (p.tasksDone == 0)
            return;
        const auto now = Clock::now();
        const auto tid = std::this_thread::get_id();
        std::lock_guard lock(mutex_);
        if (currentSpan) {
            currentSpan->end = now;
            currentSpan->closed = true;
            tasks_.push_back(currentSpan->seconds());
            currentSpan = nullptr;
        } else {
            // Out-of-process task: it began when this connection's
            // previous task ended (or when the run started).
            const auto it = lastEnd_.find(tid);
            const auto begin =
                it == lastEnd_.end() ? runStart_ : it->second;
            tasks_.push_back(secondsBetween(begin, now));
        }
        lastEnd_[tid] = now;
        lastTaskEnd_ = now;
    };
}

void
Tracer::runStarted()
{
    std::lock_guard lock(mutex_);
    runStart_ = Clock::now();
    lastTaskEnd_ = runStart_;
}

void
Tracer::runReturned()
{
    std::lock_guard lock(mutex_);
    runEnd_ = Clock::now();
}

void
Tracer::reset()
{
    std::lock_guard lock(mutex_);
    spans_.clear();
    tasks_.clear();
    lastEnd_.clear();
}

std::vector<ShardSpan>
Tracer::spans() const
{
    std::lock_guard lock(mutex_);
    std::vector<ShardSpan> out;
    for (const auto &s : spans_)
        if (s->closed)
            out.push_back(*s);
    return out;
}

std::vector<double>
Tracer::taskSeconds() const
{
    std::lock_guard lock(mutex_);
    return tasks_;
}

double
Tracer::tailSeconds() const
{
    std::lock_guard lock(mutex_);
    return secondsBetween(lastTaskEnd_, runEnd_);
}

double
Tracer::runSeconds() const
{
    std::lock_guard lock(mutex_);
    return secondsBetween(runStart_, runEnd_);
}

} // namespace e2e
