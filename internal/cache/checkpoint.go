package cache

import (
	"fmt"

	"dx100/internal/memspace"
	"dx100/internal/sample/ckpt"
)

// CheckpointSave implements ckpt.Checkpointable: the full tag store
// (valid/dirty/tag/LRU stamp per way), the LRU clock and the stride
// prefetcher's training registers. In-flight state (MSHRs, blocked
// retries) cannot be serialized, so a non-quiet cache refuses.
func (c *Cache) CheckpointSave(w *ckpt.Writer) error {
	if !c.Quiet() {
		return fmt.Errorf("cache %s%s: %d MSHRs / %d blocked retries outstanding at checkpoint",
			c.prefix, c.cfg.Name, len(c.mshrs), len(c.blocked)-c.blockedHead)
	}
	w.U32(uint32(c.cfg.Sets))
	w.U32(uint32(c.cfg.Ways))
	for i := range c.lines {
		ln := &c.lines[i]
		w.Bool(ln.valid())
		w.Bool(ln.dirty())
		w.U64(ln.tag())
		w.U64(ln.used)
	}
	w.U64(c.stamp)
	w.U64(uint64(c.lastMiss))
	w.I64(c.lastStride)
	return nil
}

// CheckpointLoad implements ckpt.Checkpointable.
func (c *Cache) CheckpointLoad(r *ckpt.Reader) error {
	if !c.Quiet() {
		return fmt.Errorf("cache %s%s: restoring into a non-quiet cache", c.prefix, c.cfg.Name)
	}
	sets, ways := int(r.U32()), int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if sets != c.cfg.Sets || ways != c.cfg.Ways {
		return fmt.Errorf("cache %s%s: checkpoint geometry %dx%d, cache is %dx%d",
			c.prefix, c.cfg.Name, sets, ways, c.cfg.Sets, c.cfg.Ways)
	}
	for i := range c.lines {
		valid, dirty, tag := r.Bool(), r.Bool(), r.U64()
		if tag > tagMask {
			return fmt.Errorf("cache %s%s: checkpoint tag %#x out of range", c.prefix, c.cfg.Name, tag)
		}
		ln := &c.lines[i]
		ln.bits = tag
		if valid {
			ln.bits |= lineValid
		}
		if dirty {
			ln.bits |= lineDirty
		}
		ln.used = r.U64()
	}
	c.stamp = r.U64()
	c.lastMiss = memspace.PAddr(r.U64())
	c.lastStride = r.I64()
	return r.Err()
}
