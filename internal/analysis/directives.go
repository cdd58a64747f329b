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

// Host-side classifications. A field or package-level var carrying one
// of these markers lies outside simulated state, so hosttaint accepts
// host-tainted values there and sharecheck lets machines share it:
//
//	//cryptojack:hostonly  — host-side handle (obs registries, http,
//	                         logging, worker plumbing): never influences
//	                         simulated observable state, and the one
//	                         legitimate destination for host-tainted
//	                         values.
//	//cryptojack:immutable — written once before use and never mutated
//	                         (lookup tables, decoded programs): safe to
//	                         share across machines.
//
// The marker goes on the field's line or doc comment; a marker on a
// type declaration covers all of that struct's fields, and one on a var
// block's doc comment covers every var in the block.
var classRe = regexp.MustCompile(`cryptojack:(hostonly|immutable)\b`)

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
	// hostSide holds every struct field and package-level var marked
	// cryptojack:hostonly or cryptojack:immutable.
	hostSide map[types.Object]bool
	// typeHostSide holds every type whose declaration comment carries
	// one of those markers, covering all fields of the struct.
	typeHostSide map[types.Object]bool
	// fieldOwner maps a struct field to the named type declaring it, so
	// HostSide can fall back to the type-level marker.
	fieldOwner map[types.Object]types.Object
	// ignores holds every //lint:ignore comment for the audit; ignoreAt
	// indexes them by position for usage marking.
	ignores  []*IgnoreComment
	ignoreAt map[string]map[int]*IgnoreComment
}

func newDirectives() *Directives {
	return &Directives{
		funcs:        map[types.Object]map[string]bool{},
		guarded:      map[types.Object]string{},
		guardObj:     map[types.Object]types.Object{},
		suppress:     map[string]map[int]map[string]bool{},
		hostSide:     map[types.Object]bool{},
		typeHostSide: map[types.Object]bool{},
		fieldOwner:   map[types.Object]types.Object{},
		ignoreAt:     map[string]map[int]*IgnoreComment{},
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

// GuardedFields returns every annotated field object (package-merge order;
// callers must not depend on ordering).
func (d *Directives) GuardedFields() map[types.Object]string { return d.guarded }

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

// HostSide reports whether obj is classified hostonly or immutable: by
// its own field- or var-level marker, or, for a struct field, by a
// marker on the declaring type.
func (d *Directives) HostSide(obj types.Object) bool {
	if d == nil || obj == nil {
		return false
	}
	return d.hostSide[obj] || d.typeHostSide[d.fieldOwner[obj]]
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

	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		switch gd.Tok {
		case token.TYPE:
			d.collectTypeClasses(gd, info)
		case token.VAR:
			d.collectVarClasses(gd, info)
		default: // const/import declarations carry no classifications
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

// markedHostSide reports whether any of the comment groups carries a
// hostonly or immutable marker.
func markedHostSide(groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if classRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// collectTypeClasses records type-level and field-level host-side
// markers (plus field→type ownership) for every struct type in a
// package-level type declaration.
func (d *Directives) collectTypeClasses(gd *ast.GenDecl, info *types.Info) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		tn := info.Defs[ts.Name]
		if tn == nil {
			continue
		}
		// An ungrouped `type Foo struct` carries its doc on the GenDecl.
		docs := []*ast.CommentGroup{ts.Doc, ts.Comment}
		if len(gd.Specs) == 1 {
			docs = append([]*ast.CommentGroup{gd.Doc}, docs...)
		}
		if markedHostSide(docs...) {
			d.typeHostSide[tn] = true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		under, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		// Walk AST fields in parallel with the flattened *types.Struct
		// field list so embedded fields (no AST names) get objects too.
		idx := 0
		for _, f := range st.Fields.List {
			n := len(f.Names)
			if n == 0 {
				n = 1 // embedded
			}
			marked := markedHostSide(f.Doc, f.Comment)
			for i := 0; i < n && idx < under.NumFields(); i, idx = i+1, idx+1 {
				fld := under.Field(idx)
				d.fieldOwner[fld] = tn
				if marked {
					d.hostSide[fld] = true
				}
			}
		}
	}
}

// collectVarClasses records host-side markers of package-level vars. A
// marker on the var block's doc comment covers every spec in the block.
func (d *Directives) collectVarClasses(gd *ast.GenDecl, info *types.Info) {
	block := markedHostSide(gd.Doc)
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || !(block || markedHostSide(vs.Doc, vs.Comment)) {
			continue
		}
		for _, name := range vs.Names {
			if obj := info.Defs[name]; obj != nil {
				d.hostSide[obj] = true
			}
		}
	}
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
