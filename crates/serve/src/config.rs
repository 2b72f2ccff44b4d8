//! Server sizing knobs.

use std::time::Duration;

/// Sizing and policy knobs for a [`crate::Server`].
///
/// Marked `#[non_exhaustive]`: construct via [`ServeConfig::default`] and
/// the `with_*` builders so future knobs (cache policy, priorities, …) stay
/// non-breaking.
///
/// ```
/// use mcfpga_serve::ServeConfig;
/// use std::time::Duration;
///
/// let cfg = ServeConfig::default()
///     .with_workers(4)
///     .with_queue_capacity(128)
///     .with_default_deadline(Some(Duration::from_secs(30)))
///     .with_queue_watermark(96)
///     .with_tenant_inflight_cap(4);
/// assert_eq!(cfg.workers, 4);
/// assert_eq!(cfg.queue_watermark, Some(96));
/// assert_eq!(cfg.tenant_inflight_cap, Some(4));
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker threads draining the submission queue. `0` resolves to the
    /// machine's available parallelism at server start.
    pub workers: usize,
    /// Bound on queued (not yet dequeued) jobs; submissions beyond it are
    /// rejected with [`crate::SubmitError::QueueFull`] — explicit
    /// backpressure instead of unbounded memory growth.
    pub queue_capacity: usize,
    /// Compiled designs kept in the content-addressed LRU cache.
    ///
    /// `0` disables caching entirely: every compile runs cold (no exact or
    /// near-match hits, nothing retained, nothing evicted) and
    /// [`crate::Server::cached_designs`] stays 0. This is an explicit
    /// pass-through, not a clamp — earlier releases silently treated 0
    /// as 1.
    pub cache_capacity: usize,
    /// Deadline applied to jobs that don't carry their own. A job still
    /// queued when its deadline elapses completes with
    /// [`crate::ServeError::Deadline`] instead of running.
    pub default_deadline: Option<Duration>,
    /// Shed any submission arriving while this many jobs are queued — a
    /// soft bound below `queue_capacity`, checked after it and before
    /// `tenant_inflight_cap`. `None` (the default) never sheds.
    pub queue_watermark: Option<usize>,
    /// Shed a tenant's submission while it already has this many jobs in
    /// flight — the aggressor-isolation lever: one tenant flooding the
    /// server sheds against its own cap while others admit. `None` (the
    /// default) never sheds.
    pub tenant_inflight_cap: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 32,
            default_deadline: None,
            queue_watermark: None,
            tenant_inflight_cap: None,
        }
    }
}

impl ServeConfig {
    /// Worker threads (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Submission-queue bound before [`crate::SubmitError::QueueFull`].
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Compiled designs kept in the LRU cache. `0` disables caching: every
    /// compile runs cold and nothing is retained (see
    /// [`ServeConfig::cache_capacity`]).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Deadline for jobs that don't carry their own.
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Queue depth at which submissions are shed (see
    /// [`ServeConfig::queue_watermark`]). Every shed surfaces as
    /// [`crate::SubmitError::Shed`], `serve.shed.*` counters, the tenant's
    /// shed count, and a correlated `job_shed` trace event.
    pub fn with_queue_watermark(mut self, watermark: usize) -> Self {
        self.queue_watermark = Some(watermark);
        self
    }

    /// Per-tenant in-flight cap (see [`ServeConfig::tenant_inflight_cap`]);
    /// its sheds surface like the watermark's.
    pub fn with_tenant_inflight_cap(mut self, cap: u64) -> Self {
        self.tenant_inflight_cap = Some(cap);
        self
    }

    /// Worker threads the server will actually spawn.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}
