package bruck

// The docs name only what exists: every Go name README.md, the doc.go
// files and the verify skill cite in code is resolved against the
// module's own declarations, parsed with go/parser.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pkgDecls is what one package of the module declares: its top-level
// names, and the methods and fields (embedded types' included) of each
// of its types.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string // a struct type's embedded types
	aliases map[string][2]string
}

// moduleDecls parses every Go file of the module, tests included, and
// returns the declarations of each package by name, and the names of
// its test, fuzz and benchmark functions.
func moduleDecls(t *testing.T) (map[string]*pkgDecls, map[string]bool) {
	t.Helper()
	pkgs, tests := map[string]*pkgDecls{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		p := pkgs[name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}, aliases: map[string][2]string{}}
			pkgs[name] = p
		}
		member := func(typ, m string) {
			if p.members[typ] == nil {
				p.members[typ] = map[string]bool{}
			}
			p.members[typ][m] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					p.names[decl.Name.Name] = true
					tests[decl.Name.Name] = true
					continue
				}
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							p.names[id.Name] = true
						}
					case *ast.TypeSpec:
						p.names[spec.Name.Name] = true
						if sel, ok := spec.Type.(*ast.SelectorExpr); ok && spec.Assign.IsValid() {
							p.aliases[spec.Name.Name] = [2]string{sel.X.(*ast.Ident).Name, sel.Sel.Name}
						}
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						}
						for _, field := range fields {
							for _, id := range field.Names {
								member(spec.Name.Name, id.Name)
							}
							if len(field.Names) == 0 {
								typ := field.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if id, ok := typ.(*ast.Ident); ok {
									member(spec.Name.Name, id.Name)
									p.embeds[spec.Name.Name] = append(p.embeds[spec.Name.Name], id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(pkgs, "main")
	for name := range tests {
		if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz") && !strings.HasPrefix(name, "Benchmark") {
			delete(tests, name)
		}
	}
	return pkgs, tests
}

// has reports whether typ, a type of package p or an alias of one in
// another package, has member m, its embedded types' included.
func (p *pkgDecls) has(pkgs map[string]*pkgDecls, typ, m string) bool {
	if a, ok := p.aliases[typ]; ok {
		return pkgs[a[0]] != nil && pkgs[a[0]].has(pkgs, a[1], m)
	}
	if p.members[typ][m] {
		return true
	}
	for _, e := range p.embeds[typ] {
		if p.has(pkgs, e, m) {
			return true
		}
	}
	return false
}

var (
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	qualName = regexp.MustCompile(`(?:^|[^\w/.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// TestDocsNameWhatExists resolves the Go names the docs cite: in
// README.md and the verify skill the code spans and blocks, in every
// doc.go the whole comment. A Test…, Fuzz… or Benchmark… name must be a
// function of the module (a trailing * makes it a prefix), and a
// pkg.Name or pkg.Type.Member whose pkg is one of the module's packages
// must be declared there.
func TestDocsNameWhatExists(t *testing.T) {
	pkgs, tests := moduleDecls(t)
	docs := []string{"README.md", ".claude/skills/verify/SKILL.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err == nil && d.Name() == "doc.go" {
			docs = append(docs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		code := []string{string(data)}
		if !strings.HasSuffix(doc, ".go") {
			code = codeSpan.FindAllString(string(data), -1)
		}
		for _, span := range code {
			for _, name := range testName.FindAllString(span, -1) {
				if prefix, ok := strings.CutSuffix(name, "*"); ok {
					found := false
					for test := range tests {
						found = found || strings.HasPrefix(test, prefix)
					}
					if !found {
						t.Errorf("%s: %s names no test, fuzz or benchmark function", doc, name)
					}
				} else if !tests[name] {
					t.Errorf("%s: %s is no test, fuzz or benchmark function", doc, name)
				}
			}
			for _, m := range qualName.FindAllStringSubmatch(span, -1) {
				p := pkgs[m[1]]
				switch {
				case p == nil:
				case !p.names[m[2]]:
					t.Errorf("%s: %s.%s is not declared in package %s", doc, m[1], m[2], m[1])
				case m[3] != "" && !p.has(pkgs, m[2], m[3]):
					t.Errorf("%s: %s.%s.%s: %s has no %s", doc, m[1], m[2], m[3], m[2], m[3])
				}
			}
		}
	}
}
