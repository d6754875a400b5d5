// Command navstats runs the adaptive-navigation pipeline offline: it
// reads the visitor trails a navserve persisted into a -store-dir (the
// durable sessions of internal/storage), folds them into per-context
// transition graphs, and derives the same access structures the live
// adaptation loop would install — without the server running.
//
// Usage:
//
//	navstats -store-dir /var/lib/navserve
//	navstats -store-dir /var/lib/navserve -k 10 -min-hops 20 -format json
//
// Flags:
//
//	-store-dir       the navserve file store to read (required)
//	-k               how many top nodes/edges to report per context
//	-min-hops        per-context sample floor before a tour is derived
//	-landmark-share  visit share that promotes a node to a landmark
//	-format          text (default), json (the full report) or dot (the
//	                 per-context transition graphs as one Graphviz digraph)
//
// The site definition (which contexts exist, their member order) comes
// from the snapshot navserve exports into the same store at startup, so
// navstats needs nothing but the directory. The file backend is
// single-writer: run navstats after the server has exited, or against a
// copy of the directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/navigation"
	"repro/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "navstats:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("navstats", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "navserve file store directory (required)")
	topK := fs.Int("k", 5, "top nodes/edges per context to report")
	minHops := fs.Uint64("min-hops", analytics.DefaultMinHops,
		"per-context hops required before a tour is derived (1 = no floor; 0 means the default)")
	landmarkShare := fs.Float64("landmark-share", analytics.DefaultLandmarkShare,
		"visit share that promotes a node to a landmark (negative = promote everything, >=1 = never; 0 means the default)")
	format := fs.String("format", "text", "output format: text, json or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "text", "json", "dot":
	default:
		return fmt.Errorf("unknown -format %q (want text, json or dot)", *format)
	}
	if *storeDir == "" {
		return fmt.Errorf("-store-dir is required")
	}

	st, err := storage.OpenFile(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()

	hops, sessions, err := collectHops(st)
	if err != nil {
		return err
	}
	if sessions == 0 {
		return fmt.Errorf("store holds no persisted sessions")
	}
	lcs, err := core.LoadSnapshotContexts(st)
	if err != nil {
		return fmt.Errorf("reading site snapshot (did navserve run with -store file?): %w", err)
	}

	g := analytics.BuildGraph(hops)
	cfg := analytics.Config{MinHops: *minHops, LandmarkShare: *landmarkShare}
	tours := analytics.Derive(g, analytics.InfosFromLinkbase(lcs), cfg)

	switch *format {
	case "json":
		return writeJSON(out, sessions, g, tours, *topK)
	case "dot":
		writeDOT(out, g)
	default:
		writeText(out, sessions, g, tours, *topK)
	}
	return nil
}

// collectHops folds every persisted trail into transition hops: a move
// between two nodes of one context is a traversal, a context change
// (or trail start) an entry, and a repeated position a reload — which,
// like the live recorder, it does not count.
func collectHops(st storage.Store) ([]analytics.Hop, int, error) {
	counts := map[analytics.Hop]uint64{}
	sessions := 0
	err := st.Scan("session/", func(_ string, raw []byte) error {
		rec, err := navigation.ParseRecord(raw)
		if err != nil {
			return nil // a torn or foreign record is skipped, not fatal
		}
		sessions++
		var prev *navigation.Visit
		for i := range rec.State.History {
			v := &rec.State.History[i]
			key := analytics.Hop{Context: v.Context, From: analytics.EntryFrom, To: v.NodeID}
			if prev != nil && prev.Context == v.Context {
				if prev.NodeID == v.NodeID {
					prev = v
					continue
				}
				key.From = prev.NodeID
			}
			counts[key]++
			prev = v
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	hops := make([]analytics.Hop, 0, len(counts))
	for key, n := range counts {
		key.Count = n
		hops = append(hops, key)
	}
	return hops, sessions, nil
}

// report is the JSON form of a full navstats run.
type report struct {
	Sessions int                      `json:"sessions"`
	Hops     uint64                   `json:"hops"`
	Contexts map[string]contextReport `json:"contexts"`
	Tours    map[string]tourReport    `json:"derived_tours"`
}

type contextReport struct {
	Hops     uint64                 `json:"hops"`
	TopNodes []analytics.NodeCount  `json:"top_nodes"`
	TopEdges []analytics.Transition `json:"top_edges"`
	Entries  []analytics.NodeCount  `json:"top_entries"`
	// Transitions is the complete transition graph of the context (the
	// same edges -format dot draws), deterministically ordered.
	Transitions []analytics.Transition `json:"transitions"`
}

type tourReport struct {
	Contexts map[string]navigation.TourPlan `json:"contexts"`
}

func buildReport(sessions int, g *analytics.Graph, tours map[string]*navigation.AdaptiveTour, k int) report {
	rep := report{
		Sessions: sessions,
		Hops:     g.Hops,
		Contexts: map[string]contextReport{},
		Tours:    map[string]tourReport{},
	}
	for name, cg := range g.Contexts {
		rep.Contexts[name] = contextReport{
			Hops:        cg.Hops,
			TopNodes:    cg.TopNodes(k),
			TopEdges:    cg.TopEdges(k),
			Entries:     cg.TopEntries(k),
			Transitions: sortedEdges(cg),
		}
	}
	for family, tour := range tours {
		rep.Tours[family] = tourReport{Contexts: tour.Plans}
	}
	return rep
}

func writeJSON(out io.Writer, sessions int, g *analytics.Graph, tours map[string]*navigation.AdaptiveTour, k int) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(buildReport(sessions, g, tours, k))
}

// sortedEdges returns the context's full transition list in a
// deterministic order (by count descending, then from/to), so DOT and
// JSON exports diff cleanly between runs.
func sortedEdges(cg *analytics.ContextGraph) []analytics.Transition {
	edges := cg.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Count != edges[j].Count {
			return edges[i].Count > edges[j].Count
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// writeDOT renders every context's transition graph as one Graphviz
// digraph, one cluster per context: node labels carry visit counts,
// solid edges are traversals weighted by count, dashed edges from the
// context's entry pseudo-node show where visitors came in. Pipe it to
// `dot -Tsvg` for the visualization item from the roadmap.
func writeDOT(out io.Writer, g *analytics.Graph) {
	fmt.Fprintln(out, "digraph navstats {")
	fmt.Fprintln(out, "  rankdir=LR;")
	fmt.Fprintln(out, "  node [shape=box, fontsize=10];")

	names := make([]string, 0, len(g.Contexts))
	for name := range g.Contexts {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		cg := g.Contexts[name]
		fmt.Fprintf(out, "  subgraph cluster_%d {\n", i)
		fmt.Fprintf(out, "    label=%q;\n", fmt.Sprintf("%s (%d hops)", name, cg.Hops))

		nodes := make([]string, 0, len(cg.Visits))
		for node := range cg.Visits {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		var maxCount uint64 = 1
		for _, e := range cg.Edges() {
			if e.Count > maxCount {
				maxCount = e.Count
			}
		}
		for _, node := range nodes {
			display := node
			if node == navigation.HubID {
				display = "(hub)"
			}
			fmt.Fprintf(out, "    %q [label=%q];\n", name+"/"+node,
				fmt.Sprintf("%s\n%d visits", display, cg.Visits[node]))
		}
		if len(cg.Entries) > 0 {
			fmt.Fprintf(out, "    %q [shape=plaintext, label=\"entry\"];\n", name+"/(entry)")
			entries := make([]string, 0, len(cg.Entries))
			for node := range cg.Entries {
				entries = append(entries, node)
			}
			sort.Strings(entries)
			for _, node := range entries {
				fmt.Fprintf(out, "    %q -> %q [style=dashed, label=\"%d\"];\n",
					name+"/(entry)", name+"/"+node, cg.Entries[node])
			}
		}
		for _, e := range sortedEdges(cg) {
			// Edge weight 1..4 by share of the heaviest edge.
			width := 1 + 3*float64(e.Count)/float64(maxCount)
			fmt.Fprintf(out, "    %q -> %q [label=\"%d\", penwidth=%.1f];\n",
				name+"/"+e.From, name+"/"+e.To, e.Count, width)
		}
		fmt.Fprintln(out, "  }")
	}
	fmt.Fprintln(out, "}")
}

func writeText(out io.Writer, sessions int, g *analytics.Graph, tours map[string]*navigation.AdaptiveTour, k int) {
	rep := buildReport(sessions, g, tours, k)
	fmt.Fprintf(out, "%d sessions, %d hops, %d contexts with traffic\n",
		rep.Sessions, rep.Hops, len(rep.Contexts))

	names := make([]string, 0, len(rep.Contexts))
	for name := range rep.Contexts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cr := rep.Contexts[name]
		fmt.Fprintf(out, "\ncontext %s: %d hops\n", name, cr.Hops)
		for _, n := range cr.TopNodes {
			fmt.Fprintf(out, "  node  %-20s %6d visits\n", n.Node, n.Count)
		}
		for _, e := range cr.TopEdges {
			fmt.Fprintf(out, "  edge  %-20s %6d traversals\n", e.From+" -> "+e.To, e.Count)
		}
		for _, n := range cr.Entries {
			fmt.Fprintf(out, "  entry %-20s %6d arrivals\n", n.Node, n.Count)
		}
	}

	families := make([]string, 0, len(rep.Tours))
	for family := range rep.Tours {
		families = append(families, family)
	}
	sort.Strings(families)
	if len(families) == 0 {
		fmt.Fprintf(out, "\nno tours derived (below the -min-hops floor?)\n")
		return
	}
	for _, family := range families {
		fmt.Fprintf(out, "\nderived adaptive-tour for family %s:\n", family)
		ctxNames := make([]string, 0, len(rep.Tours[family].Contexts))
		for name := range rep.Tours[family].Contexts {
			ctxNames = append(ctxNames, name)
		}
		sort.Strings(ctxNames)
		for _, name := range ctxNames {
			plan := rep.Tours[family].Contexts[name]
			fmt.Fprintf(out, "  %s: order %s\n", name, strings.Join(plan.Order, " -> "))
			if len(plan.Landmarks) > 0 {
				fmt.Fprintf(out, "    landmarks: %s\n", strings.Join(plan.Landmarks, ", "))
			}
			if len(plan.Dead) > 0 {
				fmt.Fprintf(out, "    demoted (never visited): %s\n", strings.Join(plan.Dead, ", "))
			}
		}
	}
}
