package navigation

// LinkbaseOffsets returns where each of t's extended links begins in
// links.xml, and where the root's closing line begins, as computed from
// the lengths of its links; nil when there are no contexts.
func LinkbaseOffsets(t LinkbaseText) []int {
	if len(t.links) == 0 {
		return nil
	}
	at := make([]int, 0, len(t.links)+1)
	n := len(linkbaseOpen) + len(">")
	for _, l := range t.links {
		at = append(at, n)
		n += len(l)
	}
	return append(at, n)
}
