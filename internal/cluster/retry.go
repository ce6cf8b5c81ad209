package cluster

// Unified client retry machinery. Every routing loop in the client —
// point-op stale retries, scan resume-by-range, secondary-index
// gathers, batch re-routing — shares ONE RetryPolicy (context-aware
// exponential backoff with jitter and a per-operation attempt budget)
// and one circuit-breaker table that stops routing to a server or read
// replica after consecutive failures until a probe succeeds. Before
// this lived here, each loop carried its own ad-hoc linear sleep.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy governs one client operation's retry loop.
type RetryPolicy struct {
	// MaxAttempts is the per-operation attempt budget, including the
	// first try.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter is the fraction of each delay that is randomised (0..1):
	// the slept time is uniform in [d*(1-Jitter), d]. Jitter breaks the
	// convoy of many clients retrying a moved tablet in lockstep.
	Jitter float64
}

// defaultRetryPolicy preserves the pre-unification totals: 12 attempts
// with sub-millisecond early backoff, so a migration-cutover window
// (typically < 10ms) is ridden out without adding visible latency to
// the common one-retry case.
var defaultRetryPolicy = RetryPolicy{
	MaxAttempts: 12,
	BaseDelay:   250 * time.Microsecond,
	MaxDelay:    8 * time.Millisecond,
	Jitter:      0.25,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultRetryPolicy.MaxDelay
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = defaultRetryPolicy.Jitter
	}
	return p
}

// delay returns the backoff before retry `attempt` (1-based):
// exponential from BaseDelay, capped at MaxDelay, jittered via rng.
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 && rng != nil {
		cut := time.Duration(p.Jitter * float64(d) * rng.Float64())
		d -= cut
	}
	return d
}

// sleep blocks for delay(attempt), honouring ctx's deadline and
// cancellation: an op whose context expires mid-backoff stops retrying
// immediately and returns ctx.Err().
func (p RetryPolicy) sleep(ctx context.Context, attempt int, rng *rand.Rand) error {
	d := p.delay(attempt, rng)
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- circuit breaker ----------------------------------------------------

// Breaker defaults: breakerThreshold consecutive failures open a
// target's breaker; an open breaker rejects routing for
// breakerProbeAfter, then admits ONE probe (half-open) — a probe
// success closes it, a probe failure re-opens the window.
const (
	defaultBreakerThreshold  = 5
	defaultBreakerProbeAfter = 2 * time.Millisecond
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breakerEntry struct {
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
}

// breakers is the per-target circuit-breaker table, shared by every
// client of a cluster. Targets are names like "server:ts01" or
// "replica:ts01.r0".
type breakers struct {
	mu         sync.Mutex
	threshold  int
	probeAfter time.Duration
	m          map[string]*breakerEntry
	// unhealthy counts entries with a failure recorded (a streak, or an
	// open or half-open breaker). While it is zero every breaker admits
	// and a success changes nothing, so allow and success skip the
	// mutex — the common case on the routing hot path.
	unhealthy atomic.Int64
}

// healthy reports whether e has no failure recorded.
func (e *breakerEntry) healthy() bool { return e.state == breakerClosed && e.fails == 0 }

func newBreakers(threshold int, probeAfter time.Duration) *breakers {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if probeAfter <= 0 {
		probeAfter = defaultBreakerProbeAfter
	}
	return &breakers{threshold: threshold, probeAfter: probeAfter, m: make(map[string]*breakerEntry)}
}

// allow reports whether routing to target is admitted. An open breaker
// rejects until probeAfter has elapsed, then transitions to half-open
// and admits exactly one probe; further calls reject until the probe's
// outcome is reported.
func (b *breakers) allow(target string) bool {
	if b.unhealthy.Load() == 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[target]
	if e == nil {
		return true
	}
	switch e.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(e.openedAt) >= b.probeAfter {
			e.state = breakerHalfOpen
			e.openedAt = time.Now()
			return true
		}
		return false
	default:
		// Half-open: a probe is in flight. If its outcome is never
		// reported (the caller bailed before issuing the call), admit
		// another probe after a further window rather than wedging the
		// target out of rotation forever.
		if time.Since(e.openedAt) >= b.probeAfter {
			e.openedAt = time.Now()
			return true
		}
		return false
	}
}

// success reports a successful call to target: closes its breaker and
// clears the failure streak.
func (b *breakers) success(target string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.m[target]; e != nil && !e.healthy() {
		e.state = breakerClosed
		e.fails = 0
		b.unhealthy.Add(-1)
	}
}

// failure reports a failed call to target: extends the streak, opening
// the breaker at the threshold; a failed half-open probe re-opens
// immediately.
func (b *breakers) failure(target string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[target]
	if e == nil {
		e = &breakerEntry{}
		b.m[target] = e
	}
	if e.healthy() {
		b.unhealthy.Add(1)
	}
	switch e.state {
	case breakerHalfOpen:
		e.state = breakerOpen
		e.openedAt = time.Now()
	case breakerClosed:
		if e.fails++; e.fails >= b.threshold {
			e.state = breakerOpen
			e.openedAt = time.Now()
		}
	}
}

// openCount reports how many targets are currently open or probing —
// the breaker-state gauge.
func (b *breakers) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.m {
		if e.state != breakerClosed {
			n++
		}
	}
	return n
}

// note folds an op outcome into target's breaker: nil errors and
// non-routing errors (the target responded) count as success; routing
// errors (down/unknown — the target is unreachable or shedding) count
// as failure.
func (b *breakers) note(target string, err error) {
	if err != nil && retryableRouting(err) {
		b.failure(target)
	} else if b.unhealthy.Load() != 0 {
		b.success(target)
	}
}

// noteServer folds an op outcome into a SERVER breaker. Unlike replica
// breakers, only ErrServerDown counts against a server: a tablet-level
// routing error (moved, split, frozen) is the server responding
// correctly about a tablet it no longer owns, and must not shed
// traffic for the tablets it still serves.
func (b *breakers) noteServer(id string, err error) {
	if err != nil && errors.Is(err, ErrServerDown) {
		b.failure("server:" + id)
	} else if b.unhealthy.Load() != 0 {
		b.success("server:" + id)
	}
}
