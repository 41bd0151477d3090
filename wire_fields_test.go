package edgeejb_test

import (
	"reflect"
	"testing"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/wire"
)

// TestEveryBodyFieldCrossesTheWire is the property a reflection-driven
// encoding gave for free: a field added to a message struct travels.
// The hand-written codecs carry only the fields their append and read
// functions name, so this test sets every exported field of every body
// type — nested structs, slices, maps and pointers included — to a
// non-zero value and requires the round trip to reproduce it, the first
// time a body crosses a connection and again once its names are in the
// connection's tables. A field added without codec support comes back
// zero and fails here.
func TestEveryBodyFieldCrossesTheWire(t *testing.T) {
	for _, body := range []wire.Body{
		new(dbwire.Request),
		new(dbwire.Response),
		new(appserver.Request),
		new(appserver.Response),
	} {
		typ := reflect.TypeOf(body).Elem()
		t.Run(typ.String(), func(t *testing.T) {
			fillNonZero(t, reflect.ValueOf(body).Elem(), nil)
			// An update's changed cells decode only where an update
			// stands: a commit set's write carries them here, and every
			// other memento stays whole.
			if q, ok := body.(*dbwire.Request); ok {
				q.Set.Writes[0].Delta = true
			}
			// Twice through one table pair, as two frames on one
			// connection: names cross as literals, then as indices.
			enc, dec := new(wire.Names), new(wire.Names)
			for _, pass := range []string{"first", "second"} {
				got := reflect.New(typ)
				if err := got.Interface().(wire.Body).ReadWire(body.AppendWire(nil, enc), dec); err != nil {
					t.Fatalf("%s crossing: decode: %v", pass, err)
				}
				if !reflect.DeepEqual(got.Interface(), body) {
					t.Errorf("a field did not survive its %s crossing:\n got %+v\nwant %+v", pass, got.Interface(), body)
				}
			}
		})
	}
}

// fillNonZero sets v and everything reachable from it to non-zero
// values. A slice of a type already being filled further up (a batch's
// statements are requests themselves) gets one element, so the Batch
// field itself has to travel; that element's own slice of the type
// stays empty, because the codecs refuse a batch inside a batch.
func fillNonZero(t *testing.T, v reflect.Value, filling []reflect.Type) {
	t.Helper()
	switch v.Interface().(type) {
	case time.Time:
		// Wall-clock nanoseconds are what travels; no monotonic reading.
		v.Set(reflect.ValueOf(time.Unix(0, 1_723_000_000_000_000_123)))
		return
	case memento.Value:
		// A Value carries the one field its Kind selects.
		v.Set(reflect.ValueOf(memento.String("s")))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("s")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), filling)
	case reflect.Slice:
		depth := 0
		for _, typ := range filling {
			if typ == v.Type().Elem() {
				depth++
			}
		}
		if depth > 1 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), filling)
	case reflect.Map:
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, key, filling)
		fillNonZero(t, elem, filling)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	case reflect.Struct:
		filling = append(filling, v.Type())
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s has unexported field %s: teach fillNonZero about the type", v.Type(), v.Type().Field(i).Name)
			}
			fillNonZero(t, v.Field(i), filling)
		}
		if m, ok := v.Addr().Interface().(*memento.Memento); ok {
			m.Delta = false
		}
	default:
		t.Fatalf("fillNonZero: no rule for %s", v.Type())
	}
}
