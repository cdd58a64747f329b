package darkarts_test

// FLEET.md is the architecture contract for the fleet service. This test
// ties the doc to the code: every API route must be documented AND served,
// every WorkloadSpec JSON field and catalog program must be named, and
// every file the doc's file map points at must exist. The same existence
// check covers the command and package paths in README.md and in
// DESIGN.md's module inventory.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"darkarts/internal/fleet"
)

func TestFleetDocCoversAPIAndTypes(t *testing.T) {
	doc, err := os.ReadFile("FLEET.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	f, err := fleet.New(fleet.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// Every documented route is served (not a 404), and every served route
	// is documented. The doc's route table is the lines containing
	// `/api/v1/...` in backticks.
	routes := []string{"/api/v1/fleet", "/api/v1/workloads", "/api/v1/alerts", "/api/v1/machines", "/api/v1/stats"}
	for _, route := range routes {
		if !strings.Contains(text, "`"+route+"`") {
			t.Errorf("FLEET.md does not document route %q", route)
		}
		resp, err := http.Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("documented route %q is not served", route)
		}
	}
	docRoutes := regexp.MustCompile("`(/api/v1/[a-z]+)`").FindAllStringSubmatch(text, -1)
	for _, m := range docRoutes {
		found := false
		for _, r := range routes {
			found = found || r == m[1]
		}
		if !found {
			t.Errorf("FLEET.md documents unknown route %q", m[1])
		}
	}

	// Every WorkloadSpec JSON field is in the doc's spec table.
	st := reflect.TypeOf(fleet.WorkloadSpec{})
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		if !strings.Contains(text, "`"+tag+"`") {
			t.Errorf("FLEET.md does not document WorkloadSpec field %q", tag)
		}
	}

	// Catalog programs are enumerable from the doc.
	for _, name := range f.Catalog() {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("FLEET.md does not name catalog program %q", name)
		}
	}

	// The workload kinds.
	for _, kind := range []string{fleet.KindApp, fleet.KindMiner, fleet.KindProgram} {
		if !strings.Contains(text, "`"+kind+"`") {
			t.Errorf("FLEET.md does not document workload kind %q", kind)
		}
	}

	// Fleet-mode flags.
	for _, flag := range []string{"-fleet", "-shards", "-round", "-miner-every", "-clean"} {
		if !strings.Contains(text, flag) {
			t.Errorf("FLEET.md does not mention the %s flag", flag)
		}
	}

	// The file map points at real files.
	for _, m := range regexp.MustCompile("`((?:internal|cmd)/[a-z/]+\\.go)`").FindAllStringSubmatch(text, -1) {
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("FLEET.md file map entry %q: %v", m[1], err)
		}
	}

	// The doc cross-references stay valid.
	for _, ref := range []string{"OBSERVABILITY.md", "README.md", "DESIGN.md"} {
		if !strings.Contains(text, ref) {
			t.Errorf("FLEET.md lost its reference to %s", ref)
		}
		if _, err := os.Stat(ref); err != nil {
			t.Errorf("FLEET.md references %s: %v", ref, err)
		}
	}
}

// TestDocPackagePathsExist fails when README.md or DESIGN.md's module
// inventory still names a cmd/<name> or internal/<name> directory that is
// gone, so a deleted command or package cannot keep its doc row.
func TestDocPackagePathsExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	inventory := string(design)
	start := strings.Index(inventory, "## 3. Module inventory")
	if start < 0 {
		t.Fatal("DESIGN.md has no module inventory section")
	}
	inventory = inventory[start:]
	if end := strings.Index(inventory[1:], "\n## "); end >= 0 {
		inventory = inventory[:end+1]
	}
	path := regexp.MustCompile(`\b((?:cmd|internal)/[a-z0-9]+)\b`)
	for _, doc := range []struct{ name, text string }{
		{"README.md", string(readme)},
		{"DESIGN.md module inventory", inventory},
	} {
		for _, m := range path.FindAllStringSubmatch(doc.text, -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s names %q: %v", doc.name, m[1], err)
			}
		}
	}
}
