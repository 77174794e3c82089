package mutation

import (
	"testing"

	"cloudmon/internal/monitor"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/paper"
)

// TestFigure3ModelGapDeleteAtQuotaOne records a gap in the paper's Cinder
// model (Figure 3), not in the monitor. The full-quota state's only DELETE
// transition leads to the not-full state, and that state's invariant
// needs at least one volume. With a volume quota of 1 one create fills
// the project, so deleting its only volume on a correct cloud leaves a
// state no DELETE target admits: the monitor judges it
// violation:postcondition. With a quota of 2 the same two requests go
// through the not-full state and are judged OK. Fixing the model, or
// keeping the deviation on purpose, changes this test with it.
func TestFigure3ModelGapDeleteAtQuotaOne(t *testing.T) {
	for _, c := range []struct {
		quota int
		want  string // the one violation, or "" for none
	}{
		{1, "violation:postcondition on DELETE(volume)"},
		{2, ""},
	} {
		env, err := newLabEnv(paper.CinderModel(),
			openstack.Seed{Quota: cinder.QuotaSet{Volumes: c.quota, Gigabytes: 1000}}, monitor.CheckFull)
		if err != nil {
			t.Fatal(err)
		}
		lab := &Lab{env}
		id := lab.post(paper.RoleAdmin)
		if id == "" {
			t.Fatalf("quota %d: the admin's create failed", c.quota)
		}
		lab.del(paper.RoleAdmin, id)
		if vols, _, err := lab.direct().ListVolumes(lab.ProjectID); err != nil || len(vols) != 0 {
			t.Fatalf("quota %d: the cloud holds %d volumes after the delete (%v), want 0", c.quota, len(vols), err)
		}
		n, first := lab.violations()
		want := 0
		if c.want != "" {
			want = 1
		}
		if n != want || first != c.want {
			t.Errorf("quota %d: %d violations, first %q; want %d, %q", c.quota, n, first, want, c.want)
		}
	}
}
