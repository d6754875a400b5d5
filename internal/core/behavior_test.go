package core

import (
	"strings"
	"testing"

	"repro/internal/museum"
	"repro/internal/navigation"
)

// behaviorApp builds an app whose ByAuthor context declares the given
// XLink show behaviour.
func behaviorApp(t *testing.T, show string) *App {
	t.Helper()
	model := navigation.NewModel()
	model.MustAddNodeClass(&navigation.NodeClass{Name: "PaintingNode", Class: "Painting", TitleAttr: "title"})
	model.MustAddContext(&navigation.ContextDef{
		Name: "ByAuthor", NodeClass: "PaintingNode",
		GroupBy: "paints", OrderBy: "year",
		Access: navigation.IndexedGuidedTour{}, Show: show,
	})
	app, err := NewApp(museum.PaperStore(), model)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestShowDefaultIsReplace(t *testing.T) {
	app := behaviorApp(t, "")
	// The linkbase carries xlink:show="replace" on every arc.
	if !strings.Contains(app.Linkbase().String(), `show="replace"`) {
		t.Error("default show not emitted as replace")
	}
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page.HTML(), "_blank") {
		t.Error("replace behaviour produced target=_blank")
	}
}

func TestShowNewOpensBlankTarget(t *testing.T) {
	app := behaviorApp(t, "new")
	if !strings.Contains(app.Linkbase().String(), `show="new"`) {
		t.Error("show=new not in linkbase")
	}
	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.HTML(), `target="_blank"`) {
		t.Errorf("show=new did not produce target=_blank:\n%s", page.HTML())
	}
	hub, err := app.RenderPage("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hub.HTML(), `target="_blank"`) {
		t.Errorf("hub anchors missing target=_blank:\n%s", hub.HTML())
	}
}

// TestShowEmbedInlinesMembers: with xlink:show="embed" the index page
// embeds each member's content where its link would stand — the XLink
// behaviour the paper could not demonstrate for lack of an agent.
func TestShowEmbedInlinesMembers(t *testing.T) {
	app := behaviorApp(t, "embed")
	hub, err := app.RenderPage("ByAuthor:picasso", navigation.HubID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`class="embed"`,
		`data-node="guitar"`,
		"<h2>Guitar</h2>",
		"<h2>Guernica</h2>",
		"<dt>year</dt>",
		"<dd>1913</dd>",
	} {
		if !strings.Contains(hub.HTML(), want) {
			t.Errorf("embedded hub missing %q:\n%s", want, hub.HTML())
		}
	}
	// Embedded entries replace the member anchors.
	if strings.Contains(hub.HTML(), `class="nav-member"`) {
		t.Errorf("embed left plain member anchors:\n%s", hub.HTML())
	}
}

// TestInvalidShowRejected: a bogus show value reaches the generated
// linkbase, and the XLink processor rejects it when the app reads the
// linkbase back — invalid behaviour declarations cannot slip through.
func TestInvalidShowRejected(t *testing.T) {
	model := navigation.NewModel()
	model.MustAddNodeClass(&navigation.NodeClass{Name: "P", Class: "Painting"})
	model.MustAddContext(&navigation.ContextDef{
		Name: "X", NodeClass: "P", Access: navigation.Index{}, Show: "explode",
	})
	if _, err := NewApp(museum.PaperStore(), model); err == nil {
		t.Error("invalid show value accepted by NewApp")
	}
}
