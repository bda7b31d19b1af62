package crawler

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// TestNeutralLineCoversEveryField holds the hand codec to every field
// SiteResult and SiteCrawl carry, found by reflection rather than
// listed, so a field added to either struct fails here until
// siteline.go handles it. A site with that one field set (non-zero)
// must either be declined by the hand writer or written as json.Marshal
// writes it and read back as json.Unmarshal reads it.
func TestNeutralLineCoversEveryField(t *testing.T) {
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			idx, name := append(slices.Clip(index), i), path+f.Name
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, name+".")
				continue
			}
			var r SiteResult
			setNonZero(t, reflect.ValueOf(&r).Elem().FieldByIndex(idx), name)
			got, ok := appendNeutralLine(nil, &r)
			if !ok {
				continue
			}
			want, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s set: hand writer writes %s, encoding/json %s", name, got, want)
				continue
			}
			var hand, std SiteResult
			if err := json.Unmarshal(got, &std); err != nil {
				t.Fatal(err)
			}
			if !parseNeutralLine(got, &hand) || !reflect.DeepEqual(hand, std) {
				t.Errorf("%s set: hand reader decodes %s to %+v, encoding/json to %+v", name, got, hand, std)
			}
		}
	}
	walk(reflect.TypeOf(SiteResult{}), nil, "")
}

// setNonZero sets v to a small non-zero value of its kind: 1, "x",
// true, or one zero element.
func setNonZero(t *testing.T, v reflect.Value, name string) {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
		v.Set(m)
	default:
		t.Fatalf("%s: no non-zero value for kind %s; teach setNonZero and siteline.go about it", name, v.Kind())
	}
}
