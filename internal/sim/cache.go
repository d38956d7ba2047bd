package sim

// BlockID identifies one cache-model block (a fixed-size fraction of an
// application array). The paper measured cache behaviour with PAPI at
// line granularity; the model works at block granularity (default 1 KiB),
// which preserves reuse-distance behaviour at simulation-tractable cost.
type BlockID uint64

// lruCache is a bytes-capacity LRU set of blocks (doubly-linked list +
// map), one per cache level instance.
type lruCache struct {
	capacity  int64
	used      int64
	blockSize int64
	nodes     map[BlockID]*lruNode
	head      *lruNode // most recent
	tail      *lruNode // least recent
}

type lruNode struct {
	id         BlockID
	prev, next *lruNode
}

func newLRU(capacity, blockSize int64) *lruCache {
	return &lruCache{capacity: capacity, blockSize: blockSize, nodes: make(map[BlockID]*lruNode)}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache) pushFront(n *lruNode) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// touch accesses block id: returns true on hit. On miss the block is
// inserted, evicting LRU blocks as needed.
func (c *lruCache) touch(id BlockID) bool {
	if n, ok := c.nodes[id]; ok {
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return true
	}
	n := &lruNode{id: id}
	c.nodes[id] = n
	c.pushFront(n)
	c.used += c.blockSize
	for c.used > c.capacity && c.tail != nil {
		ev := c.tail
		c.unlink(ev)
		delete(c.nodes, ev.id)
		c.used -= c.blockSize
	}
	return false
}

// contains reports residency without changing recency.
func (c *lruCache) contains(id BlockID) bool {
	_, ok := c.nodes[id]
	return ok
}

// CacheConfig sizes the modeled hierarchy. Defaults approximate a
// Skylake 8168 socket scaled to simulation problem sizes; see
// EXPERIMENTS.md for the scaling argument.
type CacheConfig struct {
	BlockBytes int64 // model granularity
	L1Bytes    int64 // per core
	L2Bytes    int64 // per core
	L3Bytes    int64 // shared per rank

	// Per-block access costs (seconds) by the level that served it.
	L1Time   float64
	L2Time   float64
	L3Time   float64
	DRAMTime float64

	// Stall cycles charged per miss at each level (for Fig. 2f).
	CPUGHz float64

	// ContentionAlpha scales the DRAM penalty with the number of other
	// concurrently DRAM-active cores: penalty *= 1 + alpha*(n-1).
	ContentionAlpha float64
}

// DefaultCacheConfig returns the calibrated model defaults.
func DefaultCacheConfig() CacheConfig {
	// Per-block times model effective (not peak) bandwidth: LULESH-style
	// indirection reads defeat prefetching, so a 1 KiB block from DRAM
	// costs ~600 ns (~1.7 GB/s effective per core), with cache hits
	// proportionally cheaper. These put a memory-bound kernel at roughly
	// 2/3 memory time, matching the paper's work-time-inflation range.
	return CacheConfig{
		BlockBytes:      1 << 10,
		L1Bytes:         8 << 10,
		L2Bytes:         128 << 10,
		L3Bytes:         3 << 20,
		L1Time:          20e-9,
		L2Time:          60e-9,
		L3Time:          150e-9,
		DRAMTime:        600e-9,
		CPUGHz:          2.7,
		ContentionAlpha: 0.08,
	}
}

// CacheStats mirrors the PAPI counters the paper reports: data-cache
// misses and miss-induced stall cycles per level.
type CacheStats struct {
	Accesses int64
	L1DCM    int64
	L2DCM    int64
	L3CM     int64
	// StallCycles per level (time above a hit in that level, in cycles).
	L1Stalls    float64
	L2Stalls    float64
	L3Stalls    float64
	TotalStalls float64
}

// Hierarchy models the caches of one rank: private L1/L2 per core and a
// shared L3.
type Hierarchy struct {
	cfg   CacheConfig
	l1    []*lruCache
	l2    []*lruCache
	l3    *lruCache
	stats CacheStats
}

// NewHierarchy builds the hierarchy for cores cores.
func NewHierarchy(cores int, cfg CacheConfig) *Hierarchy {
	h := &Hierarchy{cfg: cfg, l3: newLRU(cfg.L3Bytes, cfg.BlockBytes)}
	for i := 0; i < cores; i++ {
		h.l1 = append(h.l1, newLRU(cfg.L1Bytes, cfg.BlockBytes))
		h.l2 = append(h.l2, newLRU(cfg.L2Bytes, cfg.BlockBytes))
	}
	return h
}

// Stats returns the accumulated counters.
func (h *Hierarchy) Stats() CacheStats { return h.stats }

// Access touches one block from core, returning the time cost of the
// access (excluding contention scaling, applied by the caller for DRAM
// fills). Inclusive hierarchy: a fill installs the block at every level.
func (h *Hierarchy) Access(core int, id BlockID) (cost float64, dram bool) {
	cfg := &h.cfg
	h.stats.Accesses++
	if h.l1[core].touch(id) {
		return cfg.L1Time, false
	}
	h.stats.L1DCM++
	if h.l2[core].touch(id) {
		h.stats.L1Stalls += (cfg.L2Time - cfg.L1Time) * cfg.CPUGHz * 1e9
		h.stats.TotalStalls += (cfg.L2Time - cfg.L1Time) * cfg.CPUGHz * 1e9
		return cfg.L2Time, false
	}
	h.stats.L2DCM++
	if h.l3.touch(id) {
		st := (cfg.L3Time - cfg.L1Time) * cfg.CPUGHz * 1e9
		h.stats.L2Stalls += st
		h.stats.TotalStalls += st
		return cfg.L3Time, false
	}
	h.stats.L3CM++
	st := (cfg.DRAMTime - cfg.L1Time) * cfg.CPUGHz * 1e9
	h.stats.L3Stalls += st
	h.stats.TotalStalls += st
	return cfg.DRAMTime, true
}

// Footprint is the set of blocks one task touches. Blocks are visited in
// order; repeated visits within a task hit L1.
type Footprint []BlockID

// BlocksOf converts a byte range of a named array region into block IDs.
// arrayBase namespaces arrays so different fields never alias.
func BlocksOf(arrayBase uint64, startByte, endByte int64, blockBytes int64) Footprint {
	if endByte <= startByte {
		return nil
	}
	first := startByte / blockBytes
	last := (endByte - 1) / blockBytes
	fp := make(Footprint, 0, last-first+1)
	for b := first; b <= last; b++ {
		fp = append(fp, BlockID(arrayBase<<40|uint64(b)))
	}
	return fp
}
