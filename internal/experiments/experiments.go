// Package experiments implements the per-figure reproduction harness of
// EXPERIMENTS.md: each function regenerates one artifact or table of the
// paper (Figures 1–9 and the quantified §5 claims) and returns it as
// printable text. cmd/navbench is the CLI front end.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"text/tabwriter"

	"repro/internal/aspect"
	"repro/internal/core"
	"repro/internal/difflib"
	"repro/internal/lift"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/tangled"
	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the experiment identifier, e.g. "e1".
	ID string
	// Title summarizes what is reproduced.
	Title string
	// Run produces the experiment's printable output.
	Run func() (string, error)
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"e1", "Fig 1/6 — aspect weaving trace", E1WeaveTrace},
		{"e2", "Fig 2(a) — Index topology", E2IndexTopology},
		{"e3", "Fig 2(b) — Indexed Guided Tour topology", E3IGTTopology},
		{"e4", "Fig 3 — Guitar page under Index", E4GuitarIndexPage},
		{"e5", "Fig 4 — Guitar page under IGT (+diff vs Fig 3)", E5GuitarIGTPage},
		{"e6", "Fig 5 — implementation class inventory", E6ClassInventory},
		{"e7", "Figs 7–9 — picasso.xml, avignon.xml, links.xml", E7DataAndLinkbase},
		{"e8", "§5 claim — change-cost table (tangled vs separated)", E8ChangeCostTable},
		{"e9", "§2 — context-dependent Next traces", E9ContextTraces},
		{"e10", "§6 — weaving throughput", E10WeaveThroughput},
		{"e11", "§3 ablation — advice dispatch overhead", E11AdviceOverhead},
		{"e12", "§6 — XLink arc-resolution scaling", E12XLinkScaling},
		{"e13", "§2 — navigation vs scrolling classification", E13Classification},
		{"e14", "scale — parallel weave & cached request-time serving", E14ConcurrentServing},
		{"x1", "extension — lifting a tangled site into a linkbase", X1LiftMigration},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func paperApp(access navigation.AccessStructure) (*core.App, error) {
	return core.NewApp(museum.PaperStore(), museum.Model(access))
}

// E1WeaveTrace reproduces Figure 1/Figure 6: the weaver composing the
// base page pipeline with the navigation aspect, shown as the advice
// trace over one context's pages.
func E1WeaveTrace() (string, error) {
	app, err := paperApp(navigation.IndexedGuidedTour{})
	if err != nil {
		return "", err
	}
	app.Weaver().EnableTrace()
	if _, err := app.WeaveSite(); err != nil {
		return "", err
	}
	trace := app.Weaver().Trace()
	var sb strings.Builder
	sb.WriteString("base program: page pipeline   |   aspect: navigation   |   weaver output\n")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, e := range trace {
		fmt.Fprintf(&sb, "%-34s %s advice %q from aspect %q\n", e.JoinPoint, e.When, e.Advice, e.Aspect)
	}
	fmt.Fprintf(&sb, "%d join points advised; aspects registered: %v\n",
		len(trace), app.Weaver().Aspects())
	return sb.String(), nil
}

func topology(access navigation.AccessStructure, caption string) (string, error) {
	rm, err := museum.Model(access).Resolve(museum.PaperStore())
	if err != nil {
		return "", err
	}
	rc := rm.Context("ByAuthor:picasso")
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\ncontext %s, members in traversal order:\n", caption, rc.Name)
	for i, m := range rc.Members {
		fmt.Fprintf(&sb, "  %d. %s (%s)\n", i+1, m.ID(), m.Title())
	}
	sb.WriteString("edges:\n")
	for _, e := range rc.Edges() {
		fmt.Fprintf(&sb, "  %s\n", e)
	}
	return sb.String(), nil
}

// E2IndexTopology reproduces Figure 2(a).
func E2IndexTopology() (string, error) {
	return topology(navigation.Index{}, "Figure 2(a): Index access structure")
}

// E3IGTTopology reproduces Figure 2(b).
func E3IGTTopology() (string, error) {
	return topology(navigation.IndexedGuidedTour{},
		"Figure 2(b): Indexed Guided Tour access structure")
}

func guitarPage(access navigation.AccessStructure) (string, error) {
	app, err := paperApp(access)
	if err != nil {
		return "", err
	}
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		return "", err
	}
	return page.HTML(), nil
}

// E4GuitarIndexPage reproduces Figure 3: the Guitar node page woven with
// the Index access structure.
func E4GuitarIndexPage() (string, error) {
	html, err := guitarPage(navigation.Index{})
	if err != nil {
		return "", err
	}
	return "Figure 3: Guitar page, Index access structure\n\n" + html, nil
}

// E5GuitarIGTPage reproduces Figure 4 and prints the diff against the
// Figure 3 page — the paper bolds exactly these added navigation lines.
func E5GuitarIGTPage() (string, error) {
	before, err := guitarPage(navigation.Index{})
	if err != nil {
		return "", err
	}
	after, err := guitarPage(navigation.IndexedGuidedTour{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 4: Guitar page, Indexed Guided Tour access structure\n\n")
	sb.WriteString(after)
	sb.WriteString("\nDelta versus Figure 3 (the paper's bolded additions):\n")
	sb.WriteString(difflib.Unified(difflib.Lines(before), difflib.Lines(after), 1))
	st := difflib.DiffStrings(before, after)
	fmt.Fprintf(&sb, "lines added: %d, removed: %d\n", st.Added, st.Removed)
	return sb.String(), nil
}

// E6ClassInventory reproduces Figure 5: the implementation classes of the
// two access structures, as realized in this library.
func E6ClassInventory() (string, error) {
	var sb strings.Builder
	sb.WriteString("Figure 5: implementation classes\n\n")
	sb.WriteString("(a) Index implementation:\n")
	sb.WriteString("  navigation.Index            — access structure (hub + member/up edges)\n")
	sb.WriteString("  navigation.ContextDef       — context declaration holding the structure\n")
	sb.WriteString("  navigation.ResolvedContext  — materialized member list + edges\n")
	sb.WriteString("  core.NavigationAspect       — advice injecting the Index anchors\n")
	sb.WriteString("\n(b) Indexed Guided Tour implementation:\n")
	sb.WriteString("  navigation.IndexedGuidedTour — access structure (Index ∪ GuidedTour)\n")
	sb.WriteString("  navigation.GuidedTour        — the tour half (next/prev edges)\n")
	sb.WriteString("  navigation.ContextDef        — unchanged\n")
	sb.WriteString("  navigation.ResolvedContext   — unchanged\n")
	sb.WriteString("  core.NavigationAspect        — unchanged\n")
	sb.WriteString("\nThe swap replaces one value of the AccessStructure interface;\n")
	sb.WriteString("every other class is untouched, unlike Figure 5's tangled classes.\n")
	return sb.String(), nil
}

// E7DataAndLinkbase reproduces Figures 7–9: the separated data documents
// and the XLink linkbase.
func E7DataAndLinkbase() (string, error) {
	app, err := paperApp(navigation.IndexedGuidedTour{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, name := range []string{"picasso.xml", "avignon.xml"} {
		doc, err := app.Repository().Get(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "=== %s (Figure %s) ===\n%s\n",
			name, map[string]string{"picasso.xml": "7", "avignon.xml": "8"}[name],
			doc.IndentedString())
	}
	sb.WriteString("=== links.xml (Figure 9, ByAuthor:picasso extended link) ===\n")
	lb := app.Linkbase()
	// Print only the picasso context to keep the figure readable.
	for _, el := range lb.Root().ChildElements() {
		if el.AttrValue("name") == "ByAuthor:picasso" {
			fmt.Fprintf(&sb, "%s\n", indentElement(el))
			break
		}
	}
	stats, err := linkbaseStats(app)
	if err != nil {
		return "", err
	}
	sb.WriteString(stats)
	return sb.String(), nil
}

// indentElement pretty-prints one element subtree (used to excerpt the
// picasso context from links.xml). The detached clone needs the xlink
// prefix re-declared, since the declaration lives on the document root.
func indentElement(el *xmldom.Element) string {
	clone := el.Clone()
	clone.SetAttrNS("xmlns", "xlink", xlink.Namespace)
	doc := xmldom.NewDocument(clone)
	var sb strings.Builder
	_ = doc.Write(&sb, xmldom.WriteOptions{Indent: "  "})
	return sb.String()
}

func linkbaseStats(app *core.App) (string, error) {
	lb := xlink.NewLinkbase()
	if err := lb.AddDocument(app.Linkbase()); err != nil {
		return "", err
	}
	st := lb.Stats()
	return fmt.Sprintf("linkbase totals: %d extended links, %d arcs\n", st.Extended, st.Arcs), nil
}

// E8ChangeCostTable quantifies the paper's §5 claim across context sizes.
func E8ChangeCostTable() (string, error) {
	var sb strings.Builder
	sb.WriteString("Change cost of Index -> Indexed Guided Tour (the paper's §5 scenario)\n\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "members\ttangled files\ttangled lines\tseparated files\tseparated lines\tlinks.xml lines (generated)")
	for _, n := range []int{3, 10, 50, 100, 500} {
		store := museum.Synthetic(museum.SyntheticSpec{Painters: 1, PaintingsPerPainter: n, Seed: 11})
		r, err := tangled.MeasureAccessChange(store, museum.Model, "ByAuthor",
			navigation.Index{}, navigation.IndexedGuidedTour{})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
			n,
			r.Tangled.FilesChanged, r.Tangled.TotalLineEdits(),
			r.Separated.FilesChanged, r.Separated.TotalLineEdits(),
			r.GeneratedLinkbase.TotalLineEdits())
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	sb.WriteString("\ntangled cost grows with the context size; the separated, hand-edited\n")
	sb.WriteString("artifact (the navigation declaration) changes one line regardless of N.\n")
	return sb.String(), nil
}

// E9ContextTraces reproduces the §2 museum semantics as session traces.
func E9ContextTraces() (string, error) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("The same painting answers Next differently per entry context (§2):\n\n")

	s1 := navigation.NewSession(rm)
	if err := s1.EnterContext("ByAuthor:picasso", "guitar"); err != nil {
		return "", err
	}
	if err := s1.Next(); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "guitar entered via ByAuthor:picasso  -> Next = %s\n", s1.Here().ID())

	s2 := navigation.NewSession(rm)
	if err := s2.EnterContext("ByMovement:cubism", "guitar"); err != nil {
		return "", err
	}
	if err := s2.Next(); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "guitar entered via ByMovement:cubism -> Next = %s\n", s2.Here().ID())

	sb.WriteString("\nfull walk with a context switch at guernica:\n")
	s3 := navigation.NewSession(rm)
	steps := []func() error{
		func() error { return s3.EnterContext("ByAuthor:picasso", navigation.HubID) },
		func() error { return s3.Select("avignon") },
		func() error { return s3.Next() },
		func() error { return s3.Next() },
		func() error { return s3.SwitchContext("ByMovement:surrealism") },
		func() error { return s3.Next() },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return "", err
		}
	}
	for i, v := range s3.History() {
		fmt.Fprintf(&sb, "  step %d: %s @ %s\n", i+1, v.Context, v.NodeID)
	}
	return sb.String(), nil
}

// E10WeaveThroughput measures static and dynamic weaving with
// testing.Benchmark so navbench prints real numbers.
func E10WeaveThroughput() (string, error) {
	store := museum.Synthetic(museum.SyntheticSpec{
		Painters: 10, PaintingsPerPainter: 10, Movements: 4, Seed: 1,
	})
	app, err := core.NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		return "", err
	}
	site, err := app.WeaveSite()
	if err != nil {
		return "", err
	}
	pages := site.Len()

	static := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := app.WeaveSite(); err != nil {
				b.Fatal(err)
			}
		}
	})
	dynamic := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := app.RenderPage("ByAuthor:painter000", "painting000_005"); err != nil {
				b.Fatal(err)
			}
		}
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "site: %d pages\n", pages)
	fmt.Fprintf(&sb, "static weave (whole site): %s  (%.1f pages/ms)\n",
		static, float64(pages)/(float64(static.NsPerOp())/1e6))
	fmt.Fprintf(&sb, "dynamic weave (one page):  %s\n", dynamic)
	return sb.String(), nil
}

// E11AdviceOverhead measures the AOP-simulation dispatch cost ablation.
func E11AdviceOverhead() (string, error) {
	jp := &aspect.JoinPoint{Kind: "op", Name: "x"}
	body := func(*aspect.JoinPoint) (any, error) { return nil, nil }
	var sb strings.Builder
	sb.WriteString("join-point dispatch cost (interface-based AOP simulation):\n")
	direct := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = body(jp)
		}
	})
	fmt.Fprintf(&sb, "  direct call:        %s\n", direct)
	for _, advices := range []int{0, 1, 4, 16} {
		w := aspect.NewWeaver()
		a := aspect.NewAspect("bench")
		pc := aspect.MustCompilePointcut("kind(op)")
		for i := 0; i < advices; i++ {
			a.AroundAdvice(fmt.Sprintf("a%d", i), pc, i, func(inv *aspect.Invocation) (any, error) {
				return inv.Proceed()
			})
		}
		w.Use(a)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = w.Execute(jp, body)
			}
		})
		fmt.Fprintf(&sb, "  woven, %2d advice:   %s\n", advices, r)
	}
	return sb.String(), nil
}

// E12XLinkScaling measures arc-query cost against linkbase size.
func E12XLinkScaling() (string, error) {
	var sb strings.Builder
	sb.WriteString("XLink arc resolution vs linkbase size:\n")
	for _, painters := range []int{5, 25, 100} {
		store := museum.Synthetic(museum.SyntheticSpec{
			Painters: painters, PaintingsPerPainter: 10, Seed: 4,
		})
		rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(store)
		if err != nil {
			return "", err
		}
		lb := xlink.NewLinkbase()
		if err := lb.AddDocument(navigation.GenerateLinkbase(rm)); err != nil {
			return "", err
		}
		ref := xlink.Ref{URI: "painting000_005.xml"}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = lb.ArcsFromRef(ref)
			}
		})
		st := lb.Stats()
		fmt.Fprintf(&sb, "  %4d arcs (%3d links): %s per query\n", st.Arcs, st.Extended, r)
	}
	return sb.String(), nil
}

// E14ConcurrentServing measures the serving-path scaling work beyond the
// paper: the bounded-worker parallel site weave and the woven-page cache
// behind request-time serving, with the cache's invalidation-correctness
// check (the §5 change scenario must not serve stale pages).
func E14ConcurrentServing() (string, error) {
	store := museum.Synthetic(museum.SyntheticSpec{
		Painters: 10, PaintingsPerPainter: 10, Movements: 4, Seed: 1,
	})
	app, err := core.NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		return "", err
	}
	site, err := app.WeaveSite()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "site: %d pages\n", site.Len())
	sb.WriteString("parallel static weave (bounded worker pool):\n")
	for _, workers := range []int{1, 2, 4, 8} {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := app.WeaveSiteWorkers(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Fprintf(&sb, "  workers=%d: %s\n", workers, r)
	}
	uncached := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := app.RenderPage("ByAuthor:painter000", "painting000_005"); err != nil {
				b.Fatal(err)
			}
		}
	})
	cached := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := app.RenderPageCached("ByAuthor:painter000", "painting000_005"); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Fprintf(&sb, "request-time serve, uncached: %s\n", uncached)
	fmt.Fprintf(&sb, "request-time serve, cached:   %s\n", cached)
	if u, c := uncached.NsPerOp(), cached.NsPerOp(); c > 0 {
		fmt.Fprintf(&sb, "cache speedup: %.0fx\n", float64(u)/float64(c))
	}
	// Invalidation correctness: the §5 change must evict cached pages.
	if _, err := app.RenderPageCached("ByAuthor:painter000", "painting000_001"); err != nil {
		return "", err
	}
	if err := app.SetAccessStructure("ByAuthor", navigation.Index{}); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "after SetAccessStructure: %d cached pages (cache invalidated)\n",
		app.CachedPages())
	return sb.String(), nil
}

// X1LiftMigration demonstrates the migration path beyond the paper:
// a tangled site's navigation is extracted into a linkbase and the pages
// are stripped to pure content; the recovered edge sets match the model
// the site was generated from.
func X1LiftMigration() (string, error) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		return "", err
	}
	site := tangled.GenerateSite(rm)
	result, err := lift.Site(site)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "input: tangled site of %d pages (navigation embedded everywhere)\n",
		result.Stats.PagesIn)
	fmt.Fprintf(&sb, "lifted: %d contexts, %d anchors moved into links.xml, %d hub pages dropped\n",
		result.Stats.Contexts, result.Stats.AnchorsLifted, result.Stats.HubPages)
	sb.WriteString("\nrecovered contexts:\n")
	for _, c := range result.Contexts {
		model := rm.Context(c.Name)
		match := "EDGES DIFFER"
		if model != nil && len(model.Edges()) == len(c.Edges) {
			match = "edges match model"
		}
		fmt.Fprintf(&sb, "  %-24s %-22s %2d members %3d edges  (%s)\n",
			c.Name, c.AccessKind, len(c.Order), len(c.Edges), match)
	}
	fmt.Fprintf(&sb, "\nstripped pages carry no anchors; content preserved (%d pages)\n",
		len(result.Pages))
	return sb.String(), nil
}

// E13Classification reproduces the §2 distinction on a mixed corpus.
func E13Classification() (string, error) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		return "", err
	}
	var navEdges []navigation.Edge
	for _, rc := range rm.Contexts {
		navEdges = append(navEdges, rc.Edges()...)
	}
	items := make([]string, 40)
	for i := range items {
		items[i] = fmt.Sprintf("result%02d", i)
	}
	pages, pageEdges, err := navigation.Paginate(items, 10)
	if err != nil {
		return "", err
	}
	all := append(append([]navigation.Edge{}, navEdges...), pageEdges...)
	report := navigation.ClassifyAll(all)
	var sb strings.Builder
	fmt.Fprintf(&sb, "corpus: %d museum navigation edges + %d search-result paging edges (%d pages)\n",
		len(navEdges), len(pageEdges), len(pages))
	fmt.Fprintf(&sb, "classified navigational: %d\n", report.Navigational)
	fmt.Fprintf(&sb, "classified scrolling:    %d\n", report.Scrolling)
	sb.WriteString("\nper-kind ruling:\n")
	kinds := map[navigation.EdgeKind]bool{}
	for _, e := range all {
		kinds[e.Kind] = true
	}
	var kindList []string
	for k := range kinds {
		kindList = append(kindList, string(k))
	}
	sort.Strings(kindList)
	for _, k := range kindList {
		fmt.Fprintf(&sb, "  %-8s -> %s\n", k, navigation.Classify(navigation.EdgeKind(k)))
	}
	return sb.String(), nil
}
