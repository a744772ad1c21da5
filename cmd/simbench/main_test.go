package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all := make([]string, len(experimentList))
	for i, e := range experimentList {
		all[i] = e.id
	}
	for _, tc := range []struct {
		run     string
		want    string   // selected ids, in experimentList order
		unknown []string // what the error must name; nil = no error
	}{
		{run: "all", want: strings.Join(all, " ")},
		{run: "fig8, table1,fig2", want: "table1 fig2 fig8"},
		{run: "fig2,figg4,fig6,tabel1", unknown: []string{`["figg4" "tabel1"]`, "valid: all table1 "}},
		{run: "all,figg4", unknown: []string{`"figg4"`}},
		{run: "", unknown: []string{`""`}},
	} {
		sel, err := selectExperiments(tc.run)
		var got []string
		for _, e := range sel {
			got = append(got, e.id)
		}
		if g := strings.Join(got, " "); g != tc.want || (err != nil) != (tc.unknown != nil) {
			t.Errorf("-run %q selected [%s], err %v; want [%s]", tc.run, g, err, tc.want)
		}
		for _, u := range tc.unknown {
			if err != nil && !strings.Contains(err.Error(), u) {
				t.Errorf("-run %q: error %q does not mention %s", tc.run, err, u)
			}
		}
	}
}
