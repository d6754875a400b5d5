// Courses: the library applied to a second domain — a university course
// catalog — showing nothing in the machinery is museum-specific. The
// conceptual model holds departments and courses; navigation declares a
// per-department guided tour ordered by level, a filtered context of
// advanced courses, and a department menu landmark reachable from every
// page.
//
// Run with: go run ./examples/courses
package main

import (
	"fmt"
	"log"

	navaspect "repro"
)

func main() {
	schema := navaspect.NewSchema()
	schema.MustAddClass(navaspect.NewClass("Department",
		navaspect.AttrDef{Name: "name", Type: navaspect.StringAttr, Required: true},
	))
	schema.MustAddClass(navaspect.NewClass("Course",
		navaspect.AttrDef{Name: "title", Type: navaspect.StringAttr, Required: true},
		navaspect.AttrDef{Name: "level", Type: navaspect.IntAttr},
	))
	schema.MustAddRelationship(&navaspect.Relationship{
		Name: "offers", Source: "Department", Target: "Course", Card: navaspect.OneToMany,
	})

	store := navaspect.NewStore(schema)
	store.MustAdd("Department", "cs", map[string]string{"name": "Computer Science"})
	store.MustAdd("Department", "math", map[string]string{"name": "Mathematics"})
	for id, course := range map[string]map[string]string{
		"cs101":   {"title": "Programming I", "level": "100"},
		"cs201":   {"title": "Data Structures", "level": "200"},
		"cs401":   {"title": "Distributed Systems", "level": "400"},
		"math101": {"title": "Calculus", "level": "100"},
		"math301": {"title": "Topology", "level": "300"},
	} {
		store.MustAdd("Course", id, course)
	}
	for _, id := range []string{"cs101", "cs201", "cs401"} {
		store.MustLink("offers", "cs", id)
	}
	for _, id := range []string{"math101", "math301"} {
		store.MustLink("offers", "math", id)
	}

	model := navaspect.NewModel()
	model.MustAddNodeClass(&navaspect.NodeClass{Name: "CourseNode", Class: "Course", TitleAttr: "title"})
	model.MustAddContext(&navaspect.ContextDef{
		Name: "ByDepartment", NodeClass: "CourseNode",
		GroupBy: "offers", OrderBy: "level",
		Access: navaspect.IndexedGuidedTour{},
	})
	model.MustAddContext(&navaspect.ContextDef{
		Name: "Advanced", NodeClass: "CourseNode",
		OrderBy: "title", Where: "level >= 300",
		Access: navaspect.Index{},
	})
	model.MustAddContext(&navaspect.ContextDef{
		Name: "AllCourses", NodeClass: "CourseNode",
		OrderBy: "title", Access: navaspect.Menu{},
	})
	model.MustAddLandmark("AllCourses")

	app, err := navaspect.New(store, model)
	if err != nil {
		log.Fatal(err)
	}
	site, err := app.WeaveSite()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("woven %d pages; contexts:\n", site.Len())
	for _, rc := range app.Resolved().Contexts {
		fmt.Printf("  %-24s %-20s %d members\n", rc.Name, rc.Def.Access.Kind(), len(rc.Members))
	}

	// The study path: walk the CS tour in level order.
	s := navaspect.NewSession(app.Resolved())
	must(s.EnterContext("ByDepartment:cs", "cs101"))
	fmt.Println("\nCS study path:")
	fmt.Printf("  start at %s\n", s.Here().Title())
	for s.Next() == nil {
		fmt.Printf("  next: %s\n", s.Here().Title())
	}

	page, err := app.RenderPage("Advanced", "cs401")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nDistributed Systems in the Advanced context (filtered, with landmark):")
	fmt.Println(page.HTML())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
