package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a serializable datum an analyzer attaches to a package-level
// object (function, method, var, const, type) so downstream packages can
// reason interprocedurally: "this function transitively reads the wall
// clock", "this function forwards parameter 0 to a log sink". Facts are
// gob-encoded at export time — even within one process — so the in-memory
// driver and the on-disk cache exchange exactly the same representation.
//
// Fact types must be pointers to structs and should implement String();
// analysistest matches `// want fact:"..."` patterns against that
// rendering at the definition site.
type Fact interface {
	AFact() // marker method; dedicated to the fact namespace
}

// An ObjectFact is one (object, fact) pair, surfaced for tests and
// debugging (AllObjectFacts).
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
// values gob-encoded. FactSets are immutable once the package's
// analysis completes, so concurrent readers need no locking.
type FactSet struct {
	PkgPath string
	m       map[factKey][]byte
}

// NewFactSet returns an empty fact set for the package.
func NewFactSet(pkgPath string) *FactSet {
	return &FactSet{PkgPath: pkgPath, m: map[factKey][]byte{}}
}

// factRecord is the serialized form of one fact, used by Encode/Decode
// (cache entries).
type factRecord struct {
	Analyzer string
	Object   string
	Type     string
	Data     []byte
}

// records returns the set's contents sorted by key — the canonical
// order every serialization and hash uses.
func (fs *FactSet) records() []factRecord {
	recs := make([]factRecord, 0, len(fs.m))
	for k, v := range fs.m {
		recs = append(recs, factRecord{Analyzer: k.Analyzer, Object: k.Object, Type: k.Type, Data: v})
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	return recs
}

// Len reports the number of facts in the set.
func (fs *FactSet) Len() int { return len(fs.m) }

// Hash returns a content digest of the set: identical facts yield an
// identical hash regardless of export order, so it is a sound cache-key
// ingredient for dependent packages.
func (fs *FactSet) Hash() [32]byte {
	h := sha256.New()
	for _, r := range fs.records() {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%x\n", r.Analyzer, r.Object, r.Type, r.Data)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Encode serializes the set (deterministically) for a cache entry.
func (fs *FactSet) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fs.records()); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts for %s: %w", fs.PkgPath, err)
	}
	return buf.Bytes(), nil
}

// decodeFactSet reconstructs a fact set serialized by Encode.
func decodeFactSet(pkgPath string, data []byte) (*FactSet, error) {
	var recs []factRecord
	if len(data) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
			return nil, fmt.Errorf("analysis: decoding facts for %s: %w", pkgPath, err)
		}
	}
	fs := NewFactSet(pkgPath)
	for _, r := range recs {
		fs.m[factKey{Analyzer: r.Analyzer, Object: r.Object, Type: r.Type}] = r.Data
	}
	return fs, nil
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

// AllObjectFacts lists every fact this analyzer exported on the current
// package, decoded, sorted by object key then type. Primarily for tests.
func (p *Pass) AllObjectFacts() []ObjectFact {
	return DecodeObjectFacts(p.Pkg, p.facts, p.Analyzer)
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
