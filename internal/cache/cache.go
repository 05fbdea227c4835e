// Package cache models the three-level cache hierarchy of Table 3:
// per-core L1D and L2 with stride prefetchers, a shared LLC, MSHRs at
// every level, write-back/write-allocate with LRU replacement, and a
// DRAM adapter at the bottom. Caches track presence and timing only;
// data contents live in the shared memspace, which keeps the timing
// model and the functional model trivially coherent.
package cache

import (
	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// Kind is the access type seen by a cache.
type Kind uint8

const (
	// Load reads a word.
	Load Kind = iota
	// Store writes a word (write-allocate).
	Store
	// Prefetch fills a line without a waiter.
	Prefetch
)

// Level is anything that can service line-granularity accesses: a
// cache or the DRAM adapter at the bottom of the hierarchy.
type Level interface {
	// Access requests the line containing addr. It reports false when
	// the level cannot accept the access this cycle (MSHRs or ports
	// exhausted); the caller must retry. onDone (may be nil) fires
	// when the data is available.
	Access(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(now sim.Cycle)) bool
	// Present reports whether the line is resident at this level or
	// below it short of memory (used by the DX100 coherency snoop).
	Present(addr memspace.PAddr) bool
	// Invalidate drops the line at this level and every level above
	// is handled by the caller (used when DX100 writes memory
	// directly).
	Invalidate(addr memspace.PAddr)
}

// Config sizes one cache.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency sim.Cycle // hit latency, also charged on the miss path
	MSHRs   int
	Ports   int // accesses accepted per cycle
	// PrefetchDegree enables an N-line stride prefetcher when > 0.
	PrefetchDegree int
}

// SizeBytes returns the capacity of the configuration.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * memspace.LineSize }

// line is one way of the tag store in 16 bytes: the tag with the valid
// and dirty flags in its top two bits (a tag is a line number divided
// by the set count, below 2^58, so it never reaches them) and the LRU
// stamp.
type line struct {
	bits uint64 // tag | lineValid | lineDirty
	used uint64 // LRU stamp
}

const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	tagMask   = lineDirty - 1
)

func newLine(tag uint64, dirty bool, used uint64) line {
	ln := line{bits: tag | lineValid, used: used}
	if dirty {
		ln.bits |= lineDirty
	}
	return ln
}

func (ln *line) valid() bool { return ln.bits&lineValid != 0 }
func (ln *line) dirty() bool { return ln.bits&lineDirty != 0 }
func (ln *line) tag() uint64 { return ln.bits & tagMask }

// holds reports whether the line is valid and carries tag.
func (ln *line) holds(tag uint64) bool { return ln.bits&^lineDirty == tag|lineValid }

type mshr struct {
	addr    memspace.PAddr // line address
	waiters []func(now sim.Cycle)
	// inflight marks that the request was accepted by the level below
	// (otherwise it is still being retried).
	inflight bool
	kind     Kind
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg    Config
	eng    *sim.Engine
	stats  *sim.Stats
	prefix string
	below  Level
	// lines is the tag store, set-major: set s owns
	// lines[s*Ways : (s+1)*Ways]. One flat, pointer-free array is one
	// allocation the garbage collector never scans.
	lines []line
	stamp uint64
	mshrs map[memspace.PAddr]*mshr

	portCycle sim.Cycle
	portUsed  int

	// blocked holds downstream accesses the level below rejected;
	// they drain in Tick, avoiding per-cycle retry events. Pops
	// advance head instead of reslicing so the backing array is
	// reused once drained.
	blocked     []blockedAccess
	blockedHead int

	// Stride prefetcher state.
	lastMiss   memspace.PAddr
	lastStride int64

	// def, when non-nil, receives event scheduling and tick-time
	// counter bumps instead of the engine, so Access can be called from
	// a core tick fanned out to a worker goroutine (see cpu.Array).
	// Counters must ride the mailbox even though the cache itself is
	// core-private: all L1s (and all L2s) share one stats prefix, so
	// the counter objects are shared across units.
	def *sim.Deferred

	cAccesses   *sim.Counter
	cHits       *sim.Counter
	cMisses     *sim.Counter
	cPrefetches *sim.Counter
	cWritebacks *sim.Counter

	// classify, when non-nil, attributes demand hits and misses to an
	// access class (hub vs tail data, say) beside the regular counters.
	// The class counters live in the caller's own registry, never in
	// the run's stats — classification is observation only and must not
	// perturb the Result wire form.
	classify    func(line memspace.PAddr) int
	classHits   []*sim.Counter
	classMisses []*sim.Counter

	// trace, when non-nil, receives fill and eviction events. Both emit
	// sites are nil-guarded; tracing off costs one branch per fill.
	trace *obs.Sink
}

// New builds a cache on top of below.
func New(eng *sim.Engine, cfg Config, below Level, stats *sim.Stats, prefix string) *Cache {
	c := &Cache{
		cfg:    cfg,
		eng:    eng,
		stats:  stats,
		prefix: prefix,
		below:  below,
		lines:  make([]line, cfg.Sets*cfg.Ways),
		mshrs:  make(map[memspace.PAddr]*mshr),
	}
	c.cAccesses = stats.Counter(prefix + "accesses")
	c.cHits = stats.Counter(prefix + "hits")
	c.cMisses = stats.Counter(prefix + "misses")
	c.cPrefetches = stats.Counter(prefix + "prefetches")
	c.cWritebacks = stats.Counter(prefix + "writebacks")
	eng.Register(c)
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// AttachTrace directs fill/eviction events into sink (nil detaches).
func (c *Cache) AttachTrace(sink *obs.Sink) { c.trace = sink }

// SetDeferred implements sim.Deferrable (nil restores direct engine
// access). Only meaningful for core-private levels.
func (c *Cache) SetDeferred(d *sim.Deferred) { c.def = d }

// SetAccessClasses installs a demand-access classifier: classify maps
// a line address to an index into hits/misses (negative leaves the
// access unattributed). Class bumps ride the same deferral path as the
// base counters, so installation is shard-safe; a nil classify
// uninstalls. MSHR-merged accesses are neither hits nor misses in the
// base model and stay unattributed here too.
func (c *Cache) SetAccessClasses(classify func(line memspace.PAddr) int, hits, misses []*sim.Counter) {
	if classify != nil && len(hits) != len(misses) {
		panic("cache: SetAccessClasses needs matching hit/miss counter slices")
	}
	c.classify = classify
	c.classHits = hits
	c.classMisses = misses
}

// bumpClass attributes one demand hit or miss to its access class.
func (c *Cache) bumpClass(line memspace.PAddr, hit bool) {
	k := c.classify(line)
	if k < 0 || k >= len(c.classHits) {
		return
	}
	if hit {
		c.bump(c.classHits[k])
	} else {
		c.bump(c.classMisses[k])
	}
}

// after schedules fn like eng.After, routed through the deferral
// buffer while one is attached.
func (c *Cache) after(delay sim.Cycle, fn func(sim.Cycle)) {
	if c.def != nil {
		c.def.After(delay, fn)
		return
	}
	c.eng.After(delay, fn)
}

// bump increments ctr, routed through the deferral buffer while one is
// attached (counter handles are shared across same-level caches).
func (c *Cache) bump(ctr *sim.Counter) {
	if c.def != nil {
		c.def.Count(ctr, 1)
		return
	}
	ctr.Inc()
}

func (c *Cache) indexTag(addr memspace.PAddr) (set int, tag uint64) {
	l := uint64(addr) >> memspace.LineBits
	return int(l % uint64(c.cfg.Sets)), l / uint64(c.cfg.Sets)
}

// set returns the ways of set s.
func (c *Cache) set(s int) []line {
	w := c.cfg.Ways
	return c.lines[s*w : s*w+w]
}

func (c *Cache) lookup(addr memspace.PAddr) *line {
	set, tag := c.indexTag(addr)
	ways := c.set(set)
	for i := range ways {
		if ln := &ways[i]; ln.holds(tag) {
			return ln
		}
	}
	return nil
}

// Present implements Level by checking this cache and everything below
// it (except the memory adapter, whose Present is always false).
func (c *Cache) Present(addr memspace.PAddr) bool {
	if c.lookup(addr) != nil {
		return true
	}
	return c.below.Present(addr)
}

// PresentHere reports residency at this level only.
func (c *Cache) PresentHere(addr memspace.PAddr) bool { return c.lookup(addr) != nil }

// Invalidate drops the line at this level (writeback of dirty data is
// skipped: contents live in memspace, so the timing loss is a dropped
// writeback transaction, acceptable for the invalidation rate DX100
// generates).
func (c *Cache) Invalidate(addr memspace.PAddr) {
	set, tag := c.indexTag(addr)
	ways := c.set(set)
	for i := range ways {
		if ln := &ways[i]; ln.holds(tag) {
			ln.bits &= tagMask // clear valid and dirty, keep the tag
		}
	}
}

// victim picks the LRU way of the set, writing back a dirty victim.
func (c *Cache) victim(now sim.Cycle, set int) *line {
	var v *line
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if !ln.valid() {
			return ln
		}
		if v == nil || ln.used < v.used {
			v = ln
		}
	}
	if c.trace != nil {
		evAddr := (v.tag()*uint64(c.cfg.Sets) + uint64(set)) << memspace.LineBits
		dirty := int64(0)
		if v.dirty() {
			dirty = 1
		}
		c.trace.Emit(obs.Event{
			Cycle: uint64(now), Kind: obs.EvCacheEvict, Src: c.prefix,
			Args: [6]int64{int64(evAddr), int64(set), dirty},
		})
	}
	if v.dirty() {
		c.cWritebacks.Inc()
		wbAddr := memspace.PAddr((v.tag()*uint64(c.cfg.Sets) + uint64(set)) << memspace.LineBits)
		c.retryAccess(now, wbAddr, Store, nil)
	}
	return v
}

type blockedAccess struct {
	addr   memspace.PAddr
	kind   Kind
	onDone func(sim.Cycle)
}

// retryAccess pushes an access to the level below, queueing it for
// Tick-time retry if rejected.
func (c *Cache) retryAccess(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(sim.Cycle)) {
	if c.blockedHead == len(c.blocked) && c.below.Access(now, addr, kind, onDone) {
		return
	}
	c.blocked = append(c.blocked, blockedAccess{addr, kind, onDone})
}

// Access implements Level.
func (c *Cache) Access(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(now sim.Cycle)) bool {
	if now != c.portCycle {
		c.portCycle = now
		c.portUsed = 0
	}
	if c.portUsed >= c.cfg.Ports {
		return false
	}
	lineAddr := memspace.LineAddr(addr)

	// Merge into a pending miss for the same line.
	if m, ok := c.mshrs[lineAddr]; ok {
		c.portUsed++
		if kind != Prefetch {
			c.bump(c.cAccesses)
			if onDone != nil {
				m.waiters = append(m.waiters, onDone)
			}
			if kind == Store {
				m.kind = Store
			}
		}
		return true
	}

	if ln := c.lookup(lineAddr); ln != nil {
		c.portUsed++
		if kind == Prefetch {
			return true
		}
		c.bump(c.cAccesses)
		c.bump(c.cHits)
		if c.classify != nil {
			c.bumpClass(lineAddr, true)
		}
		c.stamp++
		ln.used = c.stamp
		if kind == Store {
			ln.bits |= lineDirty
		}
		if onDone != nil {
			c.after(c.cfg.Latency, onDone)
		}
		return true
	}

	// Miss: need an MSHR.
	if len(c.mshrs) >= c.cfg.MSHRs {
		return false
	}
	c.portUsed++
	if kind != Prefetch {
		c.bump(c.cAccesses)
		c.bump(c.cMisses)
		if c.classify != nil {
			c.bumpClass(lineAddr, false)
		}
	} else {
		c.bump(c.cPrefetches)
	}
	m := &mshr{addr: lineAddr, kind: kind}
	if onDone != nil {
		m.waiters = append(m.waiters, onDone)
	}
	c.mshrs[lineAddr] = m
	// After the tag-check latency, forward below; on return, fill and
	// wake the waiters.
	c.after(c.cfg.Latency, func(n sim.Cycle) {
		c.retryAccess(n, lineAddr, Load, func(n2 sim.Cycle) { c.fill(n2, m) })
	})
	if kind != Prefetch {
		c.trainPrefetcher(now, lineAddr)
	}
	return true
}

// fill installs the arrived line and wakes the MSHR's waiters.
func (c *Cache) fill(now sim.Cycle, m *mshr) {
	set, tag := c.indexTag(m.addr)
	v := c.victim(now, set)
	c.stamp++
	*v = newLine(tag, m.kind == Store, c.stamp)
	if c.trace != nil {
		c.trace.Emit(obs.Event{
			Cycle: uint64(now), Kind: obs.EvCacheFill, Src: c.prefix,
			Args: [6]int64{int64(m.addr), int64(set)},
		})
	}
	delete(c.mshrs, m.addr)
	for _, w := range m.waiters {
		w(now)
	}
}

// trainPrefetcher implements a stride prefetcher: two consecutive
// misses with the same line stride trigger PrefetchDegree prefetches
// ahead.
func (c *Cache) trainPrefetcher(now sim.Cycle, missAddr memspace.PAddr) {
	if c.cfg.PrefetchDegree == 0 {
		return
	}
	stride := int64(missAddr) - int64(c.lastMiss)
	if c.lastMiss != 0 && stride == c.lastStride && stride != 0 && abs64(stride) <= 4*memspace.LineSize {
		for d := 1; d <= c.cfg.PrefetchDegree; d++ {
			pa := memspace.PAddr(int64(missAddr) + stride*int64(d))
			addr := pa
			c.after(1, func(n sim.Cycle) {
				// Best effort: dropped if ports/MSHRs are busy.
				c.Access(n, addr, Prefetch, nil)
			})
		}
	}
	c.lastStride = stride
	c.lastMiss = missAddr
}

// Tick implements sim.Ticker: it drains rejected downstream accesses
// as the level below frees up. A cache is busy while misses are
// outstanding.
func (c *Cache) Tick(now sim.Cycle) bool {
	for c.blockedHead < len(c.blocked) {
		b := c.blocked[c.blockedHead]
		if !c.below.Access(now, b.addr, b.kind, b.onDone) {
			break
		}
		c.blocked[c.blockedHead] = blockedAccess{}
		c.blockedHead++
	}
	if c.blockedHead == len(c.blocked) {
		c.blocked = c.blocked[:0]
		c.blockedHead = 0
	}
	return len(c.mshrs) > 0 || c.blockedHead < len(c.blocked)
}

// NextWake implements sim.WakeHinter. A cache acts on its own only to
// retry blocked downstream accesses — the level below can free ports
// or buffer space on any cycle, so a non-empty retry queue pins the
// clock. Everything else (fills, waiter callbacks) arrives through
// scheduled events.
func (c *Cache) NextWake(now sim.Cycle) (sim.Cycle, bool) {
	if c.blockedHead < len(c.blocked) {
		return now + 1, true
	}
	return sim.NeverWake, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
