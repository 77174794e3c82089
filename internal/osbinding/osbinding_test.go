package osbinding

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/ocl"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// fixture wires a provider against an in-memory seeded cloud.
type fixture struct {
	cloud     *openstack.Cloud
	provider  *Provider
	projectID string
	adminTok  string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cloud := openstack.New(openstack.Config{})
	res := cloud.ApplySeed(openstack.Seed{
		ProjectName: "p",
		Quota:       cinder.QuotaSet{Volumes: 4, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	client := httpkit.HandlerClient(cloud)
	provider := NewProviderWithClient("http://cloud.internal", ServiceAccount{
		User: "cm-svc", Password: "pw", ProjectID: res.ProjectID,
	}, client)

	auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: client}
	tok, err := auth.Authenticate("alice", "pw", res.ProjectID)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cloud: cloud, provider: provider, projectID: res.ProjectID, adminTok: tok}
}

func (f *fixture) ctx(volumeID string) *monitor.RequestContext {
	params := map[string]string{"project_id": f.projectID}
	if volumeID != "" {
		params["volume_id"] = volumeID
	}
	return &monitor.RequestContext{
		Method:   uml.DELETE,
		Resource: "volume",
		Params:   params,
		Token:    f.adminTok,
	}
}

var allPaths = []string{
	"project.id", "project.volumes", "quota_sets.volume",
	"volume.status", "user.id.groups",
}

func TestSnapshotResolvesAllPaths(t *testing.T) {
	f := newFixture(t)
	v, err := f.cloud.Volumes.Create(f.projectID, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := f.provider.Snapshot(f.ctx(v.ID), allPaths)
	if err != nil {
		t.Fatal(err)
	}
	if got := env["project.id"]; !got.Equal(ocl.StringVal(f.projectID)) {
		t.Errorf("project.id = %v", got)
	}
	if got := env["project.volumes"]; got.Size() != 1 {
		t.Errorf("project.volumes = %v", got)
	}
	if got := env["quota_sets.volume"]; !got.Equal(ocl.IntVal(4)) {
		t.Errorf("quota_sets.volume = %v", got)
	}
	if got := env["volume.status"]; !got.Equal(ocl.StringVal(cinder.StatusAvailable)) {
		t.Errorf("volume.status = %v", got)
	}
	if got := env["user.id.groups"]; !got.Equal(ocl.StringsVal(paper.RoleAdmin)) {
		t.Errorf("user.id.groups = %v", got)
	}
}

func TestSnapshotMissingResourcesAreUndefined(t *testing.T) {
	f := newFixture(t)
	// Unknown volume id and unknown project.
	env, err := f.provider.Snapshot(f.ctx("ghost"), []string{"volume.status"})
	if err != nil {
		t.Fatal(err)
	}
	if !env["volume.status"].IsUndefined() {
		t.Errorf("ghost volume status = %v, want undefined", env["volume.status"])
	}
	ctx := f.ctx("")
	ctx.Params["project_id"] = "ghost-project"
	env, err = f.provider.Snapshot(ctx, []string{"project.id", "project.volumes"})
	if err != nil {
		t.Fatal(err)
	}
	if !env["project.id"].IsUndefined() {
		t.Errorf("ghost project id = %v", env["project.id"])
	}
}

func TestSnapshotMissingParamsAreUndefined(t *testing.T) {
	f := newFixture(t)
	ctx := &monitor.RequestContext{Method: uml.POST, Resource: "volume", Params: map[string]string{}}
	env, err := f.provider.Snapshot(ctx, allPaths)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allPaths {
		if !env[p].IsUndefined() {
			t.Errorf("%s = %v, want undefined without params", p, env[p])
		}
	}
}

func TestSnapshotUnknownPathIsUndefined(t *testing.T) {
	f := newFixture(t)
	env, err := f.provider.Snapshot(f.ctx(""), []string{"flavors.count"})
	if err != nil {
		t.Fatal(err)
	}
	if !env["flavors.count"].IsUndefined() {
		t.Errorf("unknown path = %v", env["flavors.count"])
	}
}

func TestUserGroupsInvalidToken(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx("")
	ctx.Token = "bogus"
	env, err := f.provider.Snapshot(ctx, []string{"user.id.groups"})
	if err != nil {
		t.Fatal(err)
	}
	if !env["user.id.groups"].IsUndefined() {
		t.Errorf("bogus token groups = %v", env["user.id.groups"])
	}
	ctx.Token = ""
	env, err = f.provider.Snapshot(ctx, []string{"user.id.groups"})
	if err != nil || !env["user.id.groups"].IsUndefined() {
		t.Errorf("empty token groups = %v, %v", env["user.id.groups"], err)
	}
}

func TestServiceTokenRefreshAfterRevocation(t *testing.T) {
	f := newFixture(t)
	// Prime the provider's cached token.
	if _, err := f.provider.Snapshot(f.ctx(""), []string{"project.volumes"}); err != nil {
		t.Fatal(err)
	}
	// Revoke every token (including the provider's) out from under it.
	f.cloud.Identity.Revoke((*f.provider.token.Load())[0])
	// The provider must re-authenticate transparently.
	env, err := f.provider.Snapshot(f.ctx(""), []string{"project.volumes"})
	if err != nil {
		t.Fatalf("snapshot after revocation: %v", err)
	}
	if env["project.volumes"].Kind != ocl.KindCollection {
		t.Errorf("project.volumes = %v", env["project.volumes"])
	}
}

// TestServiceTokenRefreshUnderConcurrency: reads that find the cached
// token revoked at once each drop it and re-authenticate; every read
// succeeds, and the token they end with is a live one. Run with -race.
func TestServiceTokenRefreshUnderConcurrency(t *testing.T) {
	f := newFixture(t)
	f.provider.Parallel = true
	paths := []string{"project.volumes", "project.id", "quota_sets.volume", "user.id.groups"}
	if _, err := f.provider.Snapshot(f.ctx(""), paths); err != nil {
		t.Fatal(err)
	}
	f.cloud.Identity.Revoke((*f.provider.token.Load())[0])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.provider.Snapshot(f.ctx(""), paths); err != nil {
				t.Errorf("snapshot after revocation: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := f.cloud.Identity.Validate((*f.provider.token.Load())[0]); err != nil {
		t.Errorf("the cached token after the refresh is not live: %v", err)
	}
	if n := f.provider.Stats().AuthRefreshes; n == 0 {
		t.Error("no read re-authenticated after the revocation")
	}
}

func TestBadServiceAccountFails(t *testing.T) {
	f := newFixture(t)
	bad := NewProviderWithClient("http://cloud.internal", ServiceAccount{
		User: "cm-svc", Password: "wrong", ProjectID: f.projectID,
	}, httpkit.HandlerClient(f.cloud))
	if _, err := bad.Snapshot(f.ctx(""), []string{"project.volumes"}); err == nil {
		t.Error("bad service credentials should surface an error")
	}
}

func TestRoutesDerivation(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	routes := Routes(set)
	if len(routes) != 4 {
		t.Fatalf("routes = %d", len(routes))
	}
	byMethod := make(map[uml.HTTPMethod]monitor.Route, len(routes))
	for _, r := range routes {
		byMethod[r.Trigger.Method] = r
	}
	if got := byMethod[uml.POST].Pattern; got != "/projects/{project_id}/volumes" {
		t.Errorf("POST pattern = %q (must target the collection)", got)
	}
	if got := byMethod[uml.DELETE].Pattern; got != "/projects/{project_id}/volumes/{volume_id}" {
		t.Errorf("DELETE pattern = %q", got)
	}
	if got := byMethod[uml.DELETE].Backend; got != "/volume/v3/{project_id}/volumes/{volume_id}" {
		t.Errorf("DELETE backend = %q", got)
	}
	if got := byMethod[uml.POST].Backend; got != "/volume/v3/{project_id}/volumes" {
		t.Errorf("POST backend = %q", got)
	}
}

// recordingTransport notes the request URI of every call before passing
// it on.
type recordingTransport struct {
	next http.RoundTripper
	mu   sync.Mutex
	uris []string
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.uris = append(rt.uris, r.URL.RequestURI())
	rt.mu.Unlock()
	return rt.next.RoundTrip(r)
}

// TestSnapshotEscapesCaptures: a decoded capture stays inside its path
// segment, so the reads for project "P?x" address /volume/v3/P%3Fx/...
// rather than /volume/v3/P with the rest of the path as a query.
func TestSnapshotEscapesCaptures(t *testing.T) {
	f := newFixture(t)
	rt := &recordingTransport{next: httpkit.HandlerRoundTripper(f.cloud)}
	p := NewProviderWithClient("http://cloud.internal", ServiceAccount{
		User: "cm-svc", Password: "pw", ProjectID: f.projectID,
	}, &http.Client{Transport: rt})
	ctx := &monitor.RequestContext{
		Method:   uml.GET,
		Resource: "volume",
		Params:   map[string]string{"project_id": "P?x", "volume_id": "v1"},
		Token:    f.adminTok,
	}
	if _, err := p.Snapshot(ctx, []string{"project.id", "project.volumes", "quota_sets.volume", "volume.status"}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"/identity/v3/projects/P%3Fx",
		"/volume/v3/P%3Fx/volumes",
		"/volume/v3/P%3Fx/quota_sets",
		"/volume/v3/P%3Fx/volumes/v1",
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	got := map[string]bool{}
	for _, uri := range rt.uris {
		got[uri] = true
	}
	for _, uri := range want {
		if !got[uri] {
			t.Errorf("no read of %s; the provider read %v", uri, rt.uris)
		}
	}
	for _, uri := range rt.uris {
		if strings.Contains(uri, "?") {
			t.Errorf("read %s: the capture cut the path", uri)
		}
	}
}
