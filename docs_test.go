package neutral

// DESIGN.md and README.md name code: a package symbol, a method or field, a
// file and line, a benchmark metric or workload, a command's flag. These
// tests resolve every such name against the source tree with go/parser, so
// a rename or a deletion that leaves a document stale fails here.

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docs are the documents whose code references are resolved.
var docs = []string{"DESIGN.md", "README.md"}

// codeIndex is every declaration of the module's library packages (package
// main has no importable names), keyed by package name, and every file of
// the repository.
type codeIndex struct {
	decls   map[string]bool     // "pkg.Name": a top-level declaration, tests included
	members map[string]bool     // "pkg.Type.Member": a method, a field or an interface method
	embeds  map[string][]string // "pkg.Type": the types it embeds, or the type it names
	types   map[string][]string // "Type": every "pkg.Type" of that name
	pkgs    map[string]bool
	tests   map[string]bool     // every Test, Benchmark and Fuzz function, package main's too
	files   map[string]int      // slash path from the root: its line count
	base    map[string][]string // file name: its paths
	metrics map[string]bool     // BENCHMARK.json's workload and metric names
	units   map[string]bool     // the last word of each end-to-end metric name
	family  map[string]bool     // the first word of each workload name
}

func buildIndex(t *testing.T) *codeIndex {
	t.Helper()
	x := &codeIndex{
		decls: map[string]bool{}, members: map[string]bool{}, embeds: map[string][]string{},
		types: map[string][]string{}, pkgs: map[string]bool{}, tests: map[string]bool{}, files: map[string]int{},
		base: map[string][]string{}, metrics: map[string]bool{}, units: map[string]bool{}, family: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		x.files[path] = strings.Count(string(src), "\n")
		x.base[d.Name()] = append(x.base[d.Name()], path)
		if strings.HasSuffix(path, ".go") {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			x.addFile(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var bench struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		x.metrics[w.Name] = true
		x.family[strings.SplitN(w.Name, "_", 2)[0]] = true
	}
	for _, m := range bench.EndToEnd {
		x.metrics[m.Name] = true
		x.units[m.Name[strings.LastIndex(m.Name, "_")+1:]] = true
	}
	for _, m := range bench.PerLayer {
		x.metrics[m.Name] = true
	}
	return x
}

// typeName is the name of a receiver or embedded type, "pkg.T" for a
// qualified one.
func typeName(pkg string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(pkg, e.X)
	case *ast.IndexExpr:
		return typeName(pkg, e.X)
	case *ast.IndexListExpr:
		return typeName(pkg, e.X)
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
	}
	return ""
}

func (x *codeIndex) addFile(f *ast.File) {
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testRef.MatchString(fn.Name.Name) {
			x.tests[fn.Name.Name] = true
		}
	}
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if pkg == "main" {
		return
	}
	x.pkgs[pkg] = true
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				x.decls[pkg+"."+d.Name.Name] = true
			} else {
				x.members[typeName(pkg, d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						x.decls[pkg+"."+n.Name] = true
					}
				case *ast.TypeSpec:
					x.addType(pkg, s)
				}
			}
		}
	}
}

func (x *codeIndex) addType(pkg string, s *ast.TypeSpec) {
	key := pkg + "." + s.Name.Name
	x.decls[key] = true
	x.types[s.Name.Name] = append(x.types[s.Name.Name], key)
	var fields []*ast.Field
	switch ty := s.Type.(type) {
	case *ast.StructType:
		fields = ty.Fields.List
	case *ast.InterfaceType:
		fields = ty.Methods.List
	default:
		if n := typeName(pkg, ty); n != "" {
			x.embeds[key] = append(x.embeds[key], n)
		}
	}
	for _, f := range fields {
		for _, n := range f.Names {
			x.members[key+"."+n.Name] = true
		}
		if len(f.Names) == 0 {
			if n := typeName(pkg, f.Type); n != "" {
				x.embeds[key] = append(x.embeds[key], n)
				x.members[key+"."+n[strings.LastIndex(n, ".")+1:]] = true
			}
		}
	}
}

// member reports whether type key ("pkg.T") has member m, directly or
// promoted through an embedded or named type.
func (x *codeIndex) member(key, m string, seen map[string]bool) bool {
	if x.members[key+"."+m] {
		return true
	}
	if seen[key] {
		return false
	}
	seen[key] = true
	for _, e := range x.embeds[key] {
		if x.member(e, m, seen) {
			return true
		}
	}
	return false
}

var (
	fence      = regexp.MustCompile("^ *```")
	span       = regexp.MustCompile("`([^`]+)`")
	pathRef    = regexp.MustCompile(`^([\w-]+/)*[\w.-]+\.(go|md|json|sh|yml|mod)(:(\d+)([-–](\d+))?)?$`)
	dirRef     = regexp.MustCompile(`^(\.github|benchmark|cmd|examples|internal|scripts)(/[\w.-]+)*/?$`)
	ptrMethod  = regexp.MustCompile(`^\(\*(\w+)\.(\w+)\)\.(\w+)$`)         // (*pkg.T).M
	pkgPtrMeth = regexp.MustCompile(`^(\w+)\.\(\*(\w+)\)\.(\w+)$`)         // pkg.(*T).M
	dotted     = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){1,2}$`) // pkg.Name, pkg.T.M, T.M, metric
	snake      = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	testRef    = regexp.MustCompile(`^((Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(/\S*)?$`) // TestX, TestX/sub
)

// resolve reports whether span s resolves. A span of no reference shape
// resolves trivially.
func (x *codeIndex) resolve(s string) bool {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "./"), "()")
	if x.metrics[s] {
		return true
	}
	if m := pathRef.FindStringSubmatch(s); m != nil {
		return x.resolvePath(s[:len(s)-len(m[3])], m[4], m[6])
	}
	if dirRef.MatchString(s) {
		_, err := os.Stat(s)
		return err == nil
	}
	if m := testRef.FindStringSubmatch(s); m != nil {
		return x.tests[m[1]]
	}
	if m := ptrMethod.FindStringSubmatch(s); m != nil {
		return x.member(m[1]+"."+m[2], m[3], map[string]bool{})
	}
	if m := pkgPtrMeth.FindStringSubmatch(s); m != nil {
		return x.member(m[1]+"."+m[2], m[3], map[string]bool{})
	}
	if snake.MatchString(s) {
		words := strings.Split(s, "_")
		if x.units[words[len(words)-1]] || len(words) == 2 && x.family[words[0]] {
			return false // the shape of a metric or workload, yet not one
		}
		return true
	}
	if !dotted.MatchString(s) {
		return true
	}
	parts := strings.Split(s, ".")
	switch {
	case x.pkgs[parts[0]] && len(parts) == 2:
		return x.decls[s]
	case x.pkgs[parts[0]]:
		return x.member(parts[0]+"."+parts[1], parts[2], map[string]bool{})
	case len(parts) == 2 && parts[0][0] >= 'A' && parts[0][0] <= 'Z':
		for _, key := range x.types[parts[0]] {
			if x.member(key, parts[1], map[string]bool{}) {
				return true
			}
		}
		return false
	}
	return true // a variable's selector, or a package outside the module
}

// resolvePath resolves a file path from the root, from internal/, or by its
// name alone, and its line or line range against the file's length.
func (x *codeIndex) resolvePath(p, from, to string) bool {
	cands := []string{p, "internal/" + p}
	if !strings.Contains(p, "/") {
		cands = x.base[p]
	}
	last, _ := strconv.Atoi(from)
	if n, _ := strconv.Atoi(to); n > last {
		last = n
	}
	for _, c := range cands {
		if n, ok := x.files[c]; ok && last <= n {
			return true
		}
	}
	return false
}

// TestDocReferencesResolve fails with the document line of every backticked
// reference, outside fenced blocks, that names no code: a "pkg.Name" with
// no top-level declaration, a "TestName" or "TestName/subtest" with no such
// test function, a "pkg.Type.Member", "(*pkg.Type).Method" or
// "Type.Member" with no such method or field, a file path or "path:line"
// past the end of its file, or a metric- or workload-shaped name that
// BENCHMARK.json does not declare.
func TestDocReferencesResolve(t *testing.T) {
	x := buildIndex(t)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank the fenced blocks in place so offsets keep their lines.
		var b strings.Builder
		in := false
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			isFence := fence.MatchString(line)
			in = in != isFence
			if isFence || in {
				line = "\n"
			}
			b.WriteString(line)
		}
		prose := b.String()
		for _, m := range span.FindAllStringSubmatchIndex(prose, -1) {
			ref := prose[m[2]:m[3]]
			if !x.resolve(ref) {
				t.Errorf("%s:%d: `%s` resolves to no code", doc, strings.Count(prose[:m[0]], "\n")+1, ref)
			}
		}
	}
}

// commandFlags are the files that define the commands' flags.
var commandFlags = []string{"cmd/neutral/main.go", "cmd/neutral-serve/main.go", "cmd/neutral-bench/main.go"}

// TestReadmeDocumentsEveryFlag fails for every flag of neutral, neutral-serve
// and neutral-bench that README.md never mentions as "-name".
func TestReadmeDocumentsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, file := range commandFlags {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" && id.Name != "fs" {
				return true
			}
			arg := 0 // fs.Int("name", ...), fs.IntVar(&v, "name", ...)
			switch name := sel.Sel.Name; {
			case name == "Var" || name == "TextVar" || strings.HasSuffix(name, "Var"):
				arg = 1
			case name == "Func" || name == "BoolFunc" || name == "String" || name == "Int" || name == "Int64" ||
				name == "Uint" || name == "Uint64" || name == "Bool" || name == "Float64" || name == "Duration":
			default:
				return true
			}
			if len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			flagName, _ := strconv.Unquote(lit.Value)
			n++
			if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(flagName) + `($|[^\w-])`).Match(readme) {
				t.Errorf("%s: flag -%s is not in README.md", file, flagName)
			}
			return true
		})
	}
	if n < 30 {
		t.Fatalf("read %d flag definitions, want the commands' 30 or more", n)
	}
}
