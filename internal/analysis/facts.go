package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a serializable datum an analyzer attaches to a package-level
// object (function, method, var, const, type) so downstream packages can
// reason interprocedurally: "this function transitively reads the wall
// clock", "this function forwards parameter 0 to a log sink". Each fact
// is gob-encoded when exported and decoded into the importer's own
// value, as go/analysis does between separately analyzed packages, so
// an importing package gets a copy, never the exporter's pointer.
//
// Fact types must be pointers to structs and should implement String();
// analysistest matches `// want fact:"..."` patterns against that
// rendering at the definition site.
type Fact interface {
	AFact() // marker method; dedicated to the fact namespace
}

// An ObjectFact is one (object, fact) pair, as DecodeObjectFacts
// surfaces them for analysistest.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

// factKey addresses one fact: the exporting analyzer, the object's
// stable path within its package, and the fact's concrete type (one
// analyzer may attach several fact types to the same object).
type factKey struct {
	Analyzer string
	Object   string
	Type     string
}

// A FactSet is the complete fact output of one package: every fact
// every analyzer exported, keyed by (analyzer, object path, fact type),
// values gob-encoded.
type FactSet struct {
	m map[factKey][]byte
}

// A FactReader resolves the fact sets of a package's dependencies by
// import path. A nil map is a valid empty reader.
type FactReader map[string]*FactSet

// lookup fetches one fact's encoded bytes.
func (fr FactReader) lookup(pkgPath string, k factKey) ([]byte, bool) {
	fs := fr[pkgPath]
	if fs == nil {
		return nil, false
	}
	b, ok := fs.m[k]
	return b, ok
}

// ObjectKey returns the stable intra-package path used to address obj
// in fact sets: "Name" for package-level objects, "Recv.Name" for
// methods (pointer receivers are stripped — Go forbids a T/*T method
// name collision). It returns "" for objects facts cannot address
// (locals, parameters, struct fields, interface methods).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // method on an unnamed or interface type
			}
			return named.Obj().Name() + "." + fn.Name()
		}
		// Identity against the package scope (rather than checking
		// fn.Scope) keeps the key stable for functions imported from gc
		// export data, which carry no scope.
		if obj.Pkg().Scope().Lookup(fn.Name()) == obj {
			return fn.Name()
		}
		return "" // function literal or local func
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name()
	}
	return ""
}

// encodeFact gob-encodes one fact value (a pointer to struct).
func encodeFact(fact Fact) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeFact gob-decodes bytes into ptr (a pointer to struct).
func decodeFact(data []byte, ptr Fact) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(ptr)
}

// factType names a fact's concrete type for keying, e.g.
// "*detrand.WallClockFact".
func factType(fact Fact) string { return fmt.Sprintf("%T", fact) }

// NewFactOfType allocates a fresh zero value of the same concrete type
// as prototype (which must be a pointer to struct). analysistest uses
// it to decode exported facts for `// want fact:` matching.
func NewFactOfType(prototype Fact) Fact {
	return reflect.New(reflect.TypeOf(prototype).Elem()).Interface().(Fact)
}

// ExportObjectFact attaches fact to obj, which must be declared in the
// package under analysis and addressable by ObjectKey. Facts on
// unaddressable objects are programmer errors and panic loudly —
// analyzers only export on top-level declarations.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s: ExportObjectFact on foreign object %v", p.Analyzer.Name, obj))
	}
	key := ObjectKey(obj)
	if key == "" {
		panic(fmt.Sprintf("analysis: %s: ExportObjectFact on unaddressable object %v", p.Analyzer.Name, obj))
	}
	data, err := encodeFact(fact)
	if err != nil {
		panic(fmt.Sprintf("analysis: %s: fact %T is not gob-serializable: %v", p.Analyzer.Name, fact, err))
	}
	p.facts.m[factKey{Analyzer: p.Analyzer.Name, Object: key, Type: factType(fact)}] = data
}

// ImportObjectFact copies the fact of ptr's type attached to obj by
// this same analyzer into ptr, reporting whether one exists. It reads
// the current package's own exports (so fixpoint passes can observe
// what they just exported) and the fact sets of all dependencies.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	k := factKey{Analyzer: p.Analyzer.Name, Object: key, Type: factType(ptr)}
	var data []byte
	var ok bool
	if obj.Pkg() == p.Pkg {
		data, ok = p.facts.m[k]
	} else {
		data, ok = p.deps.lookup(obj.Pkg().Path(), k)
	}
	if !ok {
		return false
	}
	if err := decodeFact(data, ptr); err != nil {
		panic(fmt.Sprintf("analysis: %s: decoding fact %T for %s: %v", p.Analyzer.Name, ptr, key, err))
	}
	return true
}

// DecodeObjectFacts decodes every fact analyzer a exported on pkg's
// objects from fs, sorted by object key then fact type — the form
// analysistest's `// want fact:` matching consumes. Facts whose type
// is not declared in a.FactTypes are skipped.
func DecodeObjectFacts(pkg *types.Package, fs *FactSet, a *Analyzer) []ObjectFact {
	type rec struct {
		key  factKey
		data []byte
	}
	var recs []rec
	for k, v := range fs.m {
		if k.Analyzer == a.Name {
			recs = append(recs, rec{k, v})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key.Object != recs[j].key.Object {
			return recs[i].key.Object < recs[j].key.Object
		}
		return recs[i].key.Type < recs[j].key.Type
	})
	var out []ObjectFact
	for _, r := range recs {
		obj := lookupByKey(pkg, r.key.Object)
		if obj == nil {
			continue
		}
		var proto Fact
		for _, ft := range a.FactTypes {
			if factType(ft) == r.key.Type {
				proto = ft
				break
			}
		}
		if proto == nil {
			continue
		}
		fact := NewFactOfType(proto)
		if err := decodeFact(r.data, fact); err != nil {
			continue
		}
		out = append(out, ObjectFact{Object: obj, Fact: fact})
	}
	return out
}

// lookupByKey resolves an ObjectKey back to the object it names.
func lookupByKey(pkg *types.Package, key string) types.Object {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			recv := pkg.Scope().Lookup(key[:i])
			tn, ok := recv.(*types.TypeName)
			if !ok {
				return nil
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				return nil
			}
			for m := 0; m < named.NumMethods(); m++ {
				if named.Method(m).Name() == key[i+1:] {
					return named.Method(m)
				}
			}
			return nil
		}
	}
	return pkg.Scope().Lookup(key)
}
