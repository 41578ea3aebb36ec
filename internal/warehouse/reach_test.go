package warehouse

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strconv"

	"dimred/internal/mdm"
	"dimred/internal/spec"
	"dimred/internal/storage"
	"dimred/internal/subcube"
)

// The snapshot rules have two runtime gates, and both look at state
// through the reflective walk in this file: TestPublishedSnapshotsNeverChange
// fingerprints every published snapshot it pins, and
// TestClonesAreDeepAndDisjoint compares each Clone with its original. The
// walk follows pointers, slices, maps and struct fields, unexported ones
// included, and stops where a Clone deliberately shares: at the fields
// sharedFields names and at the targets of sharedTargets.

// fieldKey names one struct field.
type fieldKey struct {
	typ  reflect.Type
	name string
}

func (k fieldKey) String() string { return k.typ.String() + "." + k.name }

func fieldOf[T any](name string) fieldKey { return fieldKey{reflect.TypeFor[T](), name} }

// sharedFields are the fields a Clone hands to the copy by reference,
// each with the reason that is safe. The walk reports their address and
// goes no further, so it never reads the atomics behind them.
var sharedFields = map[fieldKey]string{
	fieldOf[spec.Spec]("env"):        "the schema environment is frozen after construction; every Spec over a schema shares one Env",
	fieldOf[spec.Spec]("memo"):       "the slot belongs to the action set, not to the Spec: it is filled once, atomically, and commit replaces the pointer instead of writing through it",
	fieldOf[mdm.MO]("schema"):        "dimensions are immutable once populated for an analysis; clones deliberately share the schema",
	fieldOf[subcube.Cube]("actions"): "compiled actions are immutable after spec validation; every clone shares them",
	fieldOf[subcube.CubeSet]("env"):  "the schema environment is frozen after construction; clones deliberately share it",
	fieldOf[subcube.CubeSet]("met"):  "the metric substrate is all-atomic by design; clones record into the same instance",
}

// sharedTargets are pointer types whose targets every holder shares.
var sharedTargets = map[reflect.Type]string{
	reflect.TypeFor[*spec.Action](): "a compiled action is immutable after spec validation: Spec.Clone copies the action slice and shares its elements",
}

// resetFields are the fields a Clone starts afresh instead of copying:
// the clone need not equal the original there, but must still own them.
var resetFields = map[fieldKey]string{
	fieldOf[storage.Store]("mark"):     "the journal: a clone is level with its original, so its journal starts empty at its own row count",
	fieldOf[storage.Store]("touched"):  "the journal, as above",
	fieldOf[storage.Store]("reshaped"): "the journal, as above",
	fieldOf[mdm.MO]("borrowed"):        "a clone owns its columns, whether or not the original does",
}

// reach is one walk's set of visitors; each is optional.
type reach struct {
	// paths makes the walk name the nodes it reports
	// (".cubes[2].store.meas[0][7]"); without it every path is empty.
	paths bool
	// leaf receives, in walk order, every scalar and every shape fact: a
	// length, a nil, a pointer met before, a shared reference's address.
	// reset says the node sits below a resetFields field.
	leaf func(path string, reset bool, tok string)
	// mem receives each piece of memory the walk enters: a pointee, a
	// slice's backing array, a map.
	mem func(path string, lo, hi uintptr)
	// field receives every struct field the walk reaches and whether it
	// is non-zero there.
	field func(k fieldKey, nonzero bool)

	seen map[seenKey]int // pointee -> visit number: a cycle or a second reference is walked once
}

type seenKey struct {
	addr uintptr
	typ  reflect.Type
}

// walk visits everything v reaches.
func (r *reach) walk(v reflect.Value) {
	if r.seen == nil {
		r.seen = map[seenKey]int{}
	}
	r.node(v, "", false)
}

func (r *reach) sub(path, step string) string {
	if !r.paths {
		return ""
	}
	return path + step
}

func (r *reach) emit(path string, reset bool, tok string) {
	if r.leaf != nil {
		r.leaf(path, reset, tok)
	}
}

func (r *reach) enter(path string, lo, size uintptr) {
	if r.mem != nil && size > 0 {
		r.mem(path, lo, lo+size)
	}
}

func (r *reach) node(v reflect.Value, path string, reset bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			r.emit(path, reset, "nil")
			return
		}
		if _, ok := sharedTargets[v.Type()]; ok {
			r.emit(path, reset, fmt.Sprintf("shared %#x", v.Pointer()))
			return
		}
		k := seenKey{v.Pointer(), v.Type()}
		if n, ok := r.seen[k]; ok {
			r.emit(path, reset, "ref #"+strconv.Itoa(n))
			return
		}
		r.seen[k] = len(r.seen)
		r.enter(path, v.Pointer(), v.Type().Elem().Size())
		r.node(v.Elem(), path, reset)
	case reflect.Struct:
		t := v.Type()
		if p := t.PkgPath(); p == "sync" || p == "sync/atomic" {
			panic(fmt.Sprintf("walk reached %s at %q: share the field that holds it", t, path))
		}
		for i := range v.NumField() {
			k := fieldKey{t, t.Field(i).Name}
			f := v.Field(i)
			if r.field != nil {
				r.field(k, !f.IsZero())
			}
			p := r.sub(path, "."+k.name)
			if _, ok := sharedFields[k]; ok {
				r.emit(p, reset, fmt.Sprintf("shared %#x", shallowAddr(f)))
				continue
			}
			_, isReset := resetFields[k]
			r.node(f, p, reset || isReset)
		}
	case reflect.Slice:
		if v.IsNil() {
			r.emit(path, reset, "nil")
			return
		}
		r.emit(path, reset, "len "+strconv.Itoa(v.Len()))
		r.enter(path, v.Pointer(), uintptr(v.Cap())*v.Type().Elem().Size())
		r.elems(v, path, reset)
	case reflect.Array:
		r.elems(v, path, reset)
	case reflect.Map:
		if v.IsNil() {
			r.emit(path, reset, "nil")
			return
		}
		r.emit(path, reset, "len "+strconv.Itoa(v.Len()))
		r.enter(path, v.Pointer(), 1)
		keys := v.MapKeys()
		toks := make([]string, len(keys))
		for i, key := range keys {
			toks[i] = scalar(key)
		}
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return toks[order[a]] < toks[order[b]] })
		for _, i := range order {
			p := r.sub(path, "["+toks[i]+"]")
			r.emit(p, reset, "key "+toks[i])
			r.node(v.MapIndex(keys[i]), p, reset)
		}
	case reflect.Interface:
		if v.IsNil() {
			r.emit(path, reset, "nil")
			return
		}
		r.emit(path, reset, "dyn "+v.Elem().Type().String())
		r.node(v.Elem(), path, reset)
	default:
		r.emit(path, reset, scalar(v))
	}
}

func (r *reach) elems(v reflect.Value, path string, reset bool) {
	for i := range v.Len() {
		r.node(v.Index(i), r.sub(path, "["+strconv.Itoa(i)+"]"), reset)
	}
}

// scalar renders a value of a kind that holds no reference. A float is
// rendered by its bits, so that -0 and each NaN stay apart.
func scalar(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return "f" + strconv.FormatUint(math.Float64bits(v.Float()), 16)
	case reflect.String:
		return strconv.Quote(v.String())
	}
	panic(fmt.Sprintf("walk cannot render a %s", v.Type()))
}

// shallowAddr is the identity of a shared field: the address its
// reference holds, or 0.
func shallowAddr(v reflect.Value) uintptr {
	switch v.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map:
		return v.Pointer()
	}
	panic(fmt.Sprintf("shared field of kind %s holds no reference", v.Kind()))
}

// fingerprint hashes everything x reaches.
func fingerprint(x any) uint64 {
	h := fnv.New64a()
	r := reach{leaf: func(_ string, _ bool, tok string) {
		h.Write([]byte(tok))
		h.Write([]byte{0})
	}}
	r.walk(reflect.ValueOf(x))
	return h.Sum64()
}
