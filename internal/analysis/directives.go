package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Function directive comments. Each appears on its own line inside a
// function's doc comment (directive style, no space after //):
//
//	//cryptojack:hotpath  — the function is on the per-instruction hot
//	                        path: it must not allocate, format, lock, or
//	                        call anything that is not hotpath or coldpath.
//	//cryptojack:coldpath — an acknowledged slow path (fault handling,
//	                        page-table walks): hotpath functions may call
//	                        it, and it is itself exempt from hotpath rules.
//	//cryptojack:locked   — the function's contract is "caller holds the
//	                        mutex"; locksetflow skips its guarded accesses.
const (
	DirHotpath  = "cryptojack:hotpath"
	DirColdpath = "cryptojack:coldpath"
	DirLocked   = "cryptojack:locked"
)

// guardedRe matches the field annotation locksetflow consumes, e.g.
//
//	tasks []*Task // guarded by mu
var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// ignoreRe matches suppression comments:
//
//	//lint:ignore determinism host wall clock feeds metrics only
//
// The analyzer list is comma-separated; the trailing reason is mandatory
// (a suppression without a justification does not suppress).
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([A-Za-z0-9_,]+)\s+\S`)

// IgnoreComment is one //lint:ignore comment found in a target package,
// tracked for the suppression audit: malformed comments (no
// justification after the analyzer list) never suppress and are always
// reported; well-formed ones that no diagnostic ever hits are reported
// as unused when the full analyzer set runs.
type IgnoreComment struct {
	Pos token.Position
	// Names are the comma-separated analyzer names, empty for malformed
	// comments.
	Names []string
	// Malformed marks a //lint:ignore with no analyzer list or no
	// justification text.
	Malformed bool
	// Used records whether any diagnostic was suppressed by this comment.
	Used bool
}

// Directives indexes every annotation of the loaded target packages.
type Directives struct {
	funcs   map[types.Object]map[string]bool // func → directive set
	guarded map[types.Object]string          // struct field → mutex field name
	// guardObj maps a guarded field to its guard's own field object (the
	// sibling mutex), resolved at collection time so flow-sensitive
	// analyzers can key locksets on object identity instead of rendered
	// chains.
	guardObj map[types.Object]types.Object
	// suppress maps filename → line → analyzer names suppressed there.
	suppress map[string]map[int]map[string]bool
	// ignores holds every //lint:ignore comment for the audit; ignoreAt
	// indexes them by position for usage marking.
	ignores  []*IgnoreComment
	ignoreAt map[string]map[int]*IgnoreComment
}

func newDirectives() *Directives {
	return &Directives{
		funcs:    map[types.Object]map[string]bool{},
		guarded:  map[types.Object]string{},
		guardObj: map[types.Object]types.Object{},
		suppress: map[string]map[int]map[string]bool{},
		ignoreAt: map[string]map[int]*IgnoreComment{},
	}
}

// Has reports whether fn carries the directive dir.
func (d *Directives) Has(fn types.Object, dir string) bool {
	if d == nil || fn == nil {
		return false
	}
	return d.funcs[fn][dir]
}

// GuardOf returns the mutex field name guarding field, if annotated.
func (d *Directives) GuardOf(field types.Object) (string, bool) {
	if d == nil {
		return "", false
	}
	g, ok := d.guarded[field]
	return g, ok
}

// GuardObjOf returns the object of the mutex field guarding field — the
// sibling struct field the `// guarded by` annotation names. It is absent
// when the named guard is not a field of the same struct.
func (d *Directives) GuardObjOf(field types.Object) (types.Object, bool) {
	if d == nil {
		return nil, false
	}
	g, ok := d.guardObj[field]
	return g, ok
}

// IgnoreComments returns every //lint:ignore comment seen in the target
// packages, with malformedness and (post-run) usage recorded, in
// collection order; SuppressionFindings sorts.
func (d *Directives) IgnoreComments() []IgnoreComment {
	if d == nil {
		return nil
	}
	out := make([]IgnoreComment, len(d.ignores))
	for i, ig := range d.ignores {
		out[i] = *ig
	}
	return out
}

// Suppressed reports whether a diagnostic from analyzer at position pos is
// covered by a //lint:ignore comment on the same or the preceding line,
// marking the covering comment used for the suppression audit.
func (d *Directives) Suppressed(analyzer string, pos token.Position) bool {
	if d == nil {
		return false
	}
	lines := d.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if names := lines[ln]; names != nil && (names[analyzer] || names["all"]) {
			if ig := d.ignoreAt[pos.Filename][ln]; ig != nil {
				ig.Used = true
			}
			return true
		}
	}
	return false
}

// collect scans one type-checked file for directives, guarded-by field
// annotations, and suppression comments.
func (d *Directives) collect(fset *token.FileSet, file *ast.File, info *types.Info) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//lint:ignore") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				// A //lint:ignore with no analyzer list or no
				// justification does not suppress; record it so the
				// suppression audit can flag it.
				d.recordIgnore(&IgnoreComment{Pos: pos, Malformed: true})
				continue
			}
			split := strings.Split(m[1], ",")
			d.recordIgnore(&IgnoreComment{Pos: pos, Names: split})
			lines := d.suppress[pos.Filename]
			if lines == nil {
				lines = map[int]map[string]bool{}
				d.suppress[pos.Filename] = lines
			}
			names := lines[pos.Line]
			if names == nil {
				names = map[string]bool{}
				lines[pos.Line] = names
			}
			for _, n := range split {
				names[n] = true
			}
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Doc == nil {
				return true
			}
			obj := info.Defs[n.Name]
			if obj == nil {
				return true
			}
			for _, c := range n.Doc.List {
				switch strings.TrimPrefix(c.Text, "//") {
				case DirHotpath, DirColdpath, DirLocked:
					set := d.funcs[obj]
					if set == nil {
						set = map[string]bool{}
						d.funcs[obj] = set
					}
					set[strings.TrimPrefix(c.Text, "//")] = true
				}
			}
		case *ast.StructType:
			for _, f := range n.Fields.List {
				guard := ""
				for _, cg := range [2]*ast.CommentGroup{f.Doc, f.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
						guard = m[1]
					}
				}
				if guard == "" {
					continue
				}
				guardField := structField(n, guard, info)
				for _, name := range f.Names {
					if obj := info.Defs[name]; obj != nil {
						d.guarded[obj] = guard
						if guardField != nil {
							d.guardObj[obj] = guardField
						}
					}
				}
			}
		}
		return true
	})
}

// recordIgnore appends an ignore comment and indexes it by position.
func (d *Directives) recordIgnore(ig *IgnoreComment) {
	d.ignores = append(d.ignores, ig)
	lines := d.ignoreAt[ig.Pos.Filename]
	if lines == nil {
		lines = map[int]*IgnoreComment{}
		d.ignoreAt[ig.Pos.Filename] = lines
	}
	lines[ig.Pos.Line] = ig
}

// structField finds the object of st's field named name.
func structField(st *ast.StructType, name string, info *types.Info) types.Object {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				return info.Defs[id]
			}
		}
	}
	return nil
}
