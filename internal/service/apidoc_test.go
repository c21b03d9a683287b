package service_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nova/internal/service"
)

// jsonNames returns the wire names of a struct type's fields, skipping
// the json:"-" ones.
func jsonNames(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestAPIDocListsEveryRequestKey keeps API.md's POST /jobs request table
// in step with the structs that declare the wire format: one row per
// JobRequest field, and each engine block's row lists exactly the json
// tags of that engine's config struct.
func TestAPIDocListsEveryRequestKey(t *testing.T) {
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "### `POST /jobs`\n")
	section, _, _ = strings.Cut(section, "\n### ")
	code := regexp.MustCompile("`([a-z_]+)`")
	rows := map[string][]string{} // field → backticked keys of its Meaning cell
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		var keys []string
		for _, m := range code.FindAllStringSubmatch(cells[3], -1) {
			keys = append(keys, m[1])
		}
		slices.Sort(keys)
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = keys
	}

	req := reflect.TypeOf(service.JobRequest{})
	fields := jsonNames(req)
	var documented []string
	for name := range rows {
		documented = append(documented, name)
	}
	slices.Sort(documented)
	if !slices.Equal(documented, fields) {
		t.Errorf("API.md request rows %v, JobRequest fields %v", documented, fields)
	}
	for i := 0; i < req.NumField(); i++ {
		f := req.Field(i)
		if f.Type.Kind() != reflect.Pointer || f.Type.Elem().Kind() != reflect.Struct {
			continue // a scalar, not an engine block
		}
		block, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if want := jsonNames(f.Type.Elem()); !slices.Equal(rows[block], want) {
			t.Errorf("API.md %q block lists %v, %s declares %v", block, rows[block], f.Type.Elem(), want)
		}
	}
}
