package matrix

// Panel is one row panel of an n x n distance matrix kept in panels of b
// rows — rows [bi·b, bi·b+h), h = b but for a ragged last panel — as a
// streamed solve hands it to a store (the sparse package's Sink). It
// names its cell type once: exactly one of Ints and Reals is set.
type Panel struct {
	// Ints (uint32 cells, NoPath32 for no path) or Reals (float64, Inf)
	// holds the panel's h rows at the columns from From on, n−From cells a
	// row, row-major.
	Ints  []uint32
	Reals []float64
	// From is 0, or bi·b on an Ints panel whose cells below it are the
	// tiles above it read the other way round: the matrix is symmetric, so
	// the panel's tile (bi, j) is tile (j, bi) transposed for every j < bi.
	// Lower then holds those tiles as they were read back, tile (j, bi) —
	// b x h cells — at Lower[j·b·h:], each in lane order of Lanes-wide
	// groups (LaneIndex).
	From  int
	Lower []uint32
	Lanes int
}

// LaneIndex is where cell (r, c) of an R x C tile lies in lane order of
// L-wide groups: the tile's columns are cut into groups of L — the last
// one k = C mod L wide if that is not 0 — stored one after the other, each
// row by row, so that the cells of row r in a group are one run. A sparse
// batch of L sources keeps one line of lanes per vertex in the same order,
// which is what it is named for. A tile in lane order of L >= C is
// row-major.
func LaneIndex(r, c, R, C, L int) int {
	g := c / L * L
	return g*R + r*min(L, C-g) + c - g
}
