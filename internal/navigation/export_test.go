package navigation

// LinkbaseOffsets returns where each of t's extended links begins, and
// where the root's closing line begins.
func LinkbaseOffsets(t LinkbaseText) []int { return t.at }
