package exp

import (
	"fmt"
	"reflect"
	"strconv"
)

// Param is one CLI-settable field of a Config, bound to a concrete
// config instance: Set parses and assigns through to the field, String
// renders the current value.  Param implements flag.Value, so the CLI
// registers each one directly with fs.Var.  The exported fields are the
// machine-readable spec emitted by `repro list -json`.
type Param struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // bool | int | uint | float | string
	Default string `json:"default"`
	Help    string `json:"help"`

	val reflect.Value // addressable field of the bound config
}

// String renders the bound field's current value (flag.Value).
func (p *Param) String() string {
	if !p.val.IsValid() {
		return p.Default
	}
	return formatValue(p.val)
}

// IsBoolFlag marks bool parameters as boolean flags, so the standard
// bare `-flag` CLI syntax works alongside `-flag=true`.
func (p *Param) IsBoolFlag() bool { return p.Kind == "bool" }

// Set parses s into the bound field (flag.Value).
func (p *Param) Set(s string) error {
	switch p.val.Kind() {
	case reflect.Bool:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("invalid bool %q", s)
		}
		p.val.SetBool(v)
	case reflect.Int, reflect.Int64:
		v, err := strconv.ParseInt(s, 0, p.val.Type().Bits())
		if err != nil {
			return fmt.Errorf("invalid integer %q", s)
		}
		p.val.SetInt(v)
	case reflect.Uint, reflect.Uint64:
		v, err := strconv.ParseUint(s, 0, p.val.Type().Bits())
		if err != nil {
			return fmt.Errorf("invalid unsigned integer %q", s)
		}
		p.val.SetUint(v)
	case reflect.Float64:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("invalid number %q", s)
		}
		p.val.SetFloat(v)
	case reflect.String:
		p.val.SetString(s)
	default:
		return fmt.Errorf("unsupported parameter kind %s", p.val.Kind())
	}
	return nil
}

func formatValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint64:
		return strconv.FormatUint(v.Uint(), 10)
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.String:
		return v.String()
	}
	return ""
}

func kindName(k reflect.Kind) (string, bool) {
	switch k {
	case reflect.Bool:
		return "bool", true
	case reflect.Int, reflect.Int64:
		return "int", true
	case reflect.Uint, reflect.Uint64:
		return "uint", true
	case reflect.Float64:
		return "float", true
	case reflect.String:
		return "string", true
	}
	return "", false
}

// ParamsOf derives cfg's parameter spec by reflecting over its struct
// fields: every exported field carrying a `flag:"name"` tag becomes a
// Param (with `help` supplying the usage line), embedded structs are
// walked in declaration order — a config embedding Base therefore lists
// instructions/seed/tracefile first, then its own parameters.  The
// returned Params are bound to cfg, and each Default snapshots the
// field's value at call time, so deriving the spec from a fresh
// Experiment.New() config yields the experiment's true defaults.  It
// panics on malformed configs (non-pointer, unsupported field kind,
// duplicate flag name): registration is programmer-controlled.
func ParamsOf(cfg Config) []*Param {
	v := reflect.ValueOf(cfg)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("exp: config %T must be a pointer to struct", cfg))
	}
	var params []*Param
	seen := make(map[string]bool)
	flagFields(v.Elem(), func(f reflect.StructField, fv reflect.Value) {
		tag := f.Tag.Get("flag")
		kind, ok := kindName(f.Type.Kind())
		if !ok {
			panic(fmt.Sprintf("exp: field %s of %T has unsupported parameter kind %s",
				f.Name, cfg, f.Type.Kind()))
		}
		if seen[tag] {
			panic(fmt.Sprintf("exp: duplicate parameter %q in %T", tag, cfg))
		}
		seen[tag] = true
		params = append(params, &Param{
			Name:    tag,
			Kind:    kind,
			Default: formatValue(fv),
			Help:    f.Tag.Get("help"),
			val:     fv,
		})
	})
	return params
}

// flagFields calls fn for every exported field of the struct sv that
// carries a `flag` tag, walking embedded structs in declaration order:
// the parameter walk ParamsOf and Normalize share.
func flagFields(sv reflect.Value, fn func(f reflect.StructField, fv reflect.Value)) {
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Anonymous && f.Type.Kind() == reflect.Struct {
			flagFields(sv.Field(i), fn)
		} else if _, ok := f.Tag.Lookup("flag"); ok && f.IsExported() {
			fn(f, sv.Field(i))
		}
	}
}

// Normalize returns a copy of cfg in which every zero flag-tagged field
// holds def's value; cfg itself is untouched.  It is the registry's one
// normalization rule, with def an experiment's New() config: RunWith and
// CanonicalConfig apply it, so a zero field and its explicit default
// simulate, report and hash identically.  A zero value therefore cannot
// override a non-zero default.  It panics when cfg and def are not the
// same config type.
func Normalize(cfg, def Config) Config {
	if reflect.TypeOf(cfg) != reflect.TypeOf(def) {
		panic(fmt.Sprintf("exp: cannot normalize %T against %T", cfg, def))
	}
	var defaults []reflect.Value
	flagFields(reflect.ValueOf(def).Elem(), func(_ reflect.StructField, fv reflect.Value) {
		defaults = append(defaults, fv)
	})
	out := reflect.New(reflect.TypeOf(cfg).Elem())
	out.Elem().Set(reflect.ValueOf(cfg).Elem())
	i := 0
	flagFields(out.Elem(), func(_ reflect.StructField, fv reflect.Value) {
		if fv.IsZero() {
			fv.Set(defaults[i])
		}
		i++
	})
	return out.Interface().(Config)
}
