// Gallerywall: the XLink behaviours the paper could not demonstrate in
// 2002 browsers, honoured by this library's agent. A context declared
// with xlink:show="embed" turns its index page into a gallery wall — the
// members' content is inlined where the links would stand — and a second
// context with xlink:show="new" opens paintings in a separate window.
// A declarative Where filter (OOHDM's context classes) restricts one
// context to modern works.
//
// Run with: go run ./examples/gallerywall
package main

import (
	"fmt"
	"log"

	navaspect "repro"
	"repro/internal/museum"
)

func main() {
	model := navaspect.NewModel()
	model.MustAddNodeClass(&navaspect.NodeClass{
		Name: "PaintingNode", Class: "Painting", TitleAttr: "title",
	})
	// The gallery wall: an embedded index over every painting.
	model.MustAddContext(&navaspect.ContextDef{
		Name: "Wall", NodeClass: "PaintingNode",
		OrderBy: "year",
		Access:  navaspect.Menu{},
		Show:    "embed",
	})
	// Modern works only, opened in a new window.
	model.MustAddContext(&navaspect.ContextDef{
		Name: "ModernByAuthor", NodeClass: "PaintingNode",
		GroupBy: "paints", OrderBy: "year",
		Where:  "year >= 1910",
		Access: navaspect.IndexedGuidedTour{},
		Show:   "new",
	})

	app, err := navaspect.New(museum.PaperStore(), model)
	if err != nil {
		log.Fatal(err)
	}

	wall, err := app.RenderPage("Wall", navaspect.HubID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== The gallery wall (xlink:show=\"embed\") ===")
	fmt.Println(wall.HTML())

	modern, err := app.RenderPage("ModernByAuthor:picasso", "guitar")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Modern works, filtered (year >= 1910), opened per xlink:show=\"new\" ===")
	fmt.Println(modern.HTML())

	fmt.Println("=== The behaviours live in links.xml, not in any page ===")
	lb := app.Linkbase().IndentedString()
	if len(lb) > 1200 {
		lb = lb[:1200] + "\n...\n"
	}
	fmt.Println(lb)
}
