// Package codegen implements the compile-time flavour of aspect weaving
// (the repro hint's "codegen" half): like AspectJ's build-time weaver —
// which produces ordinary .class files with the aspects already composed
// in — it emits an ordinary, dependency-free Go program with the
// navigational aspect already woven into its pages. The generated program
// serves the site over HTTP with no trace of the weaving machinery.
package codegen

import (
	"fmt"
	"go/format"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Options configure generation.
type Options struct {
	// Package is the generated package name (default "main").
	Package string
	// Addr is the default listen address baked into the program.
	Addr string
}

// Generate renders the woven site as a standalone Go source file. The
// output is gofmt-formatted and compiles with only the standard library.
func Generate(app *core.App, opts Options) ([]byte, error) {
	if opts.Package == "" {
		opts.Package = "main"
	}
	if opts.Addr == "" {
		opts.Addr = ":8080"
	}
	site, err := app.WeaveSite()
	if err != nil {
		return nil, fmt.Errorf("codegen: weaving: %w", err)
	}

	var sb strings.Builder
	sb.WriteString("// Code generated by navgen; DO NOT EDIT.\n")
	sb.WriteString("//\n")
	sb.WriteString("// This program is the compile-time weave of a navaspect application:\n")
	sb.WriteString("// data, presentation and the navigational aspect were composed at\n")
	sb.WriteString("// generation time, the way AspectJ's weaver bakes aspects into class\n")
	sb.WriteString("// files. Serving it requires none of the weaving machinery.\n")
	fmt.Fprintf(&sb, "package %s\n\n", opts.Package)
	sb.WriteString("import (\n\t\"flag\"\n\t\"fmt\"\n\t\"net/http\"\n\t\"os\"\n\t\"sort\"\n\t\"strings\"\n\t\"time\"\n)\n\n")

	sb.WriteString("// pages holds every woven page, keyed by site-relative path.\n")
	sb.WriteString("var pages = map[string]string{\n")
	for _, path := range site.Paths() {
		fmt.Fprintf(&sb, "\t%s: %s,\n", strconv.Quote(path), strconv.Quote(site.Page(path).HTML()))
	}
	sb.WriteString("}\n\n")

	fmt.Fprintf(&sb, "var defaultAddr = %s\n\n", strconv.Quote(opts.Addr))

	sb.WriteString(`func main() {
	addr := flag.String("addr", defaultAddr, "listen address")
	flag.Parse()
	http.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/")
		if path == "" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprint(w, siteMap())
			return
		}
		page, ok := pages[path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, page)
	})
	fmt.Printf("serving %d woven pages on %s\n", len(pages), *addr)
	srv := &http.Server{Addr: *addr, ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// siteMap lists the woven pages.
func siteMap() string {
	paths := make([]string, 0, len(pages))
	for p := range pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html><body><h1>Woven site</h1><ul>\n")
	for _, p := range paths {
		fmt.Fprintf(&sb, "<li><a href=\"/%s\">%s</a></li>\n", p, p)
	}
	sb.WriteString("</ul></body></html>\n")
	return sb.String()
}
`)

	out, err := format.Source([]byte(sb.String()))
	if err != nil {
		return nil, fmt.Errorf("codegen: generated source does not format: %w", err)
	}
	return out, nil
}
