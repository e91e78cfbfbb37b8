package graph

// RandomDAG is randomDAG, for the external test package.
var RandomDAG = randomDAG

// NarrowSigs narrows every prefix signature to the bits of mask until the
// returned function restores them, so that different ancestries collide
// and bounds exceed LCP sizes. Signatures computed while narrowed must
// not outlive the restore.
func NarrowSigs(mask uint64) (restore func()) {
	sigMask = mask
	return func() { sigMask = ^uint64(0) }
}
