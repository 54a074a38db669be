// Package cache implements the direct-mapped, sub-blocked on-chip
// instruction cache array shared by both fetch strategies in the paper.
//
// The cache tracks only presence (tags and per-sub-block valid bits), not
// instruction bytes: the simulator reads instruction words from the program
// image, and the cache decides whether doing so costs an off-chip access.
// This is the standard arrangement for trace-driven cache simulation and is
// timing-equivalent to storing the bytes.
//
// Hill's conventional always-prefetch cache uses one-instruction (4-byte)
// sub-blocks with individual valid bits; the PIPE cache fills whole lines,
// which the same structure models by setting every sub-block of a line.
package cache

import "fmt"

// Cache is a direct-mapped cache with sub-block valid bits.
type Cache struct {
	lineBytes     int
	subBlockBytes int

	nLines      int
	subsPerLine int
	tags        []uint32
	tagValid    []bool
	valid       []bool // nLines * subsPerLine

	// Precomputed shift/mask forms of the geometry divisions. Every
	// field is a power of two (enforced by New), and index/tag/sub sit
	// on the per-word hot path of both fetch engines, where a hardware
	// divide per probe is measurable.
	lineShift uint32 // log2(lineBytes)
	indexMask uint32 // nLines - 1
	tagShift  uint32 // log2(lineBytes * nLines)
	subShift  uint32 // log2(subBlockBytes)
	lineMask  uint32 // lineBytes - 1
	subsShift uint32 // log2(subsPerLine)

	// Hits and Misses count Lookup results since the last Reset.
	Hits   uint64
	Misses uint64

	// intr, when attached, observes evictions (tag replacements) for the
	// introspection heatmaps. Fill paths pay one nil check when detached.
	intr *Introspector
}

// New constructs a cache. Size, line and sub-block must be powers of two
// with subBlock <= line <= size.
func New(sizeBytes, lineBytes, subBlockBytes int) (*Cache, error) {
	for _, v := range []struct {
		name string
		n    int
	}{{"size", sizeBytes}, {"line", lineBytes}, {"sub-block", subBlockBytes}} {
		if v.n <= 0 || v.n&(v.n-1) != 0 {
			return nil, fmt.Errorf("cache: %s %d must be a positive power of two", v.name, v.n)
		}
	}
	if subBlockBytes > lineBytes {
		return nil, fmt.Errorf("cache: sub-block %d larger than line %d", subBlockBytes, lineBytes)
	}
	if lineBytes > sizeBytes {
		return nil, fmt.Errorf("cache: line %d larger than cache %d", lineBytes, sizeBytes)
	}
	c := &Cache{
		lineBytes:     lineBytes,
		subBlockBytes: subBlockBytes,
		nLines:        sizeBytes / lineBytes,
		subsPerLine:   lineBytes / subBlockBytes,
	}
	c.tags = make([]uint32, c.nLines)
	c.tagValid = make([]bool, c.nLines)
	c.valid = make([]bool, c.nLines*c.subsPerLine)
	c.lineShift = log2u(uint32(lineBytes))
	c.indexMask = uint32(c.nLines - 1)
	c.tagShift = c.lineShift + log2u(uint32(c.nLines))
	c.subShift = log2u(uint32(subBlockBytes))
	c.lineMask = uint32(lineBytes - 1)
	c.subsShift = log2u(uint32(c.subsPerLine))
	return c, nil
}

// log2u returns log2 of a power of two.
func log2u(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// SubBlockBytes returns the sub-block size.
func (c *Cache) SubBlockBytes() int { return c.subBlockBytes }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint32) uint32 { return addr &^ uint32(c.lineBytes-1) }

// SetIntrospector attaches the introspection observer to the array's fill
// paths (nil detaches). The observer sees every tag replacement; it never
// influences the array's contents or counters.
func (c *Cache) SetIntrospector(in *Introspector) { c.intr = in }

// residentLine reconstructs the line address resident in frame i from its
// stored tag.
func (c *Cache) residentLine(i int) uint32 {
	return (c.tags[i]*uint32(c.nLines) + uint32(i)) * uint32(c.lineBytes)
}

func (c *Cache) index(addr uint32) int {
	return int((addr >> c.lineShift) & c.indexMask)
}

func (c *Cache) tag(addr uint32) uint32 {
	return addr >> c.tagShift
}

func (c *Cache) sub(addr uint32) int {
	return int((addr & c.lineMask) >> c.subShift)
}

// Present reports whether the sub-block containing addr is valid, without
// touching the hit/miss counters. Use for prefetch-side probes.
func (c *Cache) Present(addr uint32) bool {
	i := c.index(addr)
	return c.tagValid[i] && c.tags[i] == c.tag(addr) && c.valid[i*c.subsPerLine+c.sub(addr)]
}

// LinePresent reports whether every sub-block of the line containing addr
// is valid.
func (c *Cache) LinePresent(addr uint32) bool {
	i := c.index(addr)
	if !c.tagValid[i] || c.tags[i] != c.tag(addr) {
		return false
	}
	for s := 0; s < c.subsPerLine; s++ {
		if !c.valid[i*c.subsPerLine+s] {
			return false
		}
	}
	return true
}

// Lookup probes for the sub-block containing addr and counts a hit or miss.
func (c *Cache) Lookup(addr uint32) bool {
	if c.Present(addr) {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// LookupLine probes for the full line containing addr and counts a hit or
// miss.
func (c *Cache) LookupLine(addr uint32) bool {
	if c.LinePresent(addr) {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// FillSub makes the sub-block containing addr valid, claiming the line for
// addr's tag. If the tag differs from the resident line, every other
// sub-block of the frame is invalidated first.
func (c *Cache) FillSub(addr uint32) {
	i := c.index(addr)
	t := c.tag(addr)
	if !c.tagValid[i] || c.tags[i] != t {
		if c.intr != nil {
			c.intr.TrackFill(i, c.tagValid[i], c.residentLine(i))
		}
		c.tagValid[i] = true
		c.tags[i] = t
		for s := 0; s < c.subsPerLine; s++ {
			c.valid[i*c.subsPerLine+s] = false
		}
	}
	c.valid[i*c.subsPerLine+c.sub(addr)] = true
}

// FillLine makes the whole line containing addr valid.
func (c *Cache) FillLine(addr uint32) {
	i := c.index(addr)
	t := c.tag(addr)
	if c.intr != nil && (!c.tagValid[i] || c.tags[i] != t) {
		c.intr.TrackFill(i, c.tagValid[i], c.residentLine(i))
	}
	c.tagValid[i] = true
	c.tags[i] = t
	for s := 0; s < c.subsPerLine; s++ {
		c.valid[i*c.subsPerLine+s] = true
	}
}

// Reset invalidates the whole cache and clears the counters.
func (c *Cache) Reset() {
	for i := range c.tagValid {
		c.tagValid[i] = false
	}
	for i := range c.valid {
		c.valid[i] = false
	}
	c.Hits, c.Misses = 0, 0
}
