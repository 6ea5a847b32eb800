package stat

import "reflect"

// SnapshotCounters reads every Counter field of the struct pointed to
// by stats, and of the structs it embeds, into a name → value map.
// Protocol Stats blocks are plain structs of Counters, so one
// reflective walk keeps Stack.Snapshot() automatically in sync as
// counters are added — the structured equivalent of netstat(8)
// scraping its kernel symbols.
func SnapshotCounters(stats any) map[string]uint64 {
	v := reflect.ValueOf(stats)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return nil
	}
	v = v.Elem()
	if v.Kind() != reflect.Struct {
		return nil
	}
	ctype := reflect.TypeOf(Counter{})
	out := make(map[string]uint64, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.CanAddr() && f.Type() == ctype:
			out[v.Type().Field(i).Name] = f.Addr().Interface().(*Counter).Get()
		case v.Type().Field(i).Anonymous && f.Kind() == reflect.Struct && f.CanAddr():
			for name, n := range SnapshotCounters(f.Addr().Interface()) {
				out[name] = n
			}
		}
	}
	return out
}
