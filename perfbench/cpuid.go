package main

// cpuidFn executes the CPUID instruction. It stays nil on architectures
// without one, where llcBytes reports no cache.
var cpuidFn func(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// llcBytes returns the size of the largest cache level CPUID describes,
// or 0 when it describes none. Intel lists its caches under leaf 4, AMD
// under leaf 0x8000001D, in the same format.
func llcBytes() int64 {
	if cpuidFn == nil {
		return 0
	}
	maxLeaf, _, _, _ := cpuidFn(0, 0)
	maxExt, _, _, _ := cpuidFn(0x80000000, 0)
	var best int64
	for _, leaf := range []uint32{4, 0x8000001d} {
		if (leaf < 0x80000000 && leaf > maxLeaf) || (leaf >= 0x80000000 && leaf > maxExt) {
			continue
		}
		for sub := uint32(0); sub < 16; sub++ {
			a, b, c, _ := cpuidFn(leaf, sub)
			if a&0x1f == 0 { // no more caches
				break
			}
			ways := int64(b>>22) + 1
			partitions := int64(b>>12&0x3ff) + 1
			line := int64(b&0xfff) + 1
			sets := int64(c) + 1
			best = max(best, ways*partitions*line*sets)
		}
		if best > 0 {
			break
		}
	}
	return best
}
