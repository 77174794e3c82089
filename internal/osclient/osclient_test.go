package osclient

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/paper"
)

// wiredCloud returns a client wired in memory to a seeded cloud.
func wiredCloud(t *testing.T) (*Client, string) {
	t.Helper()
	cloud := openstack.New(openstack.Config{})
	res := cloud.ApplySeed(openstack.Seed{
		ProjectName: "p",
		Quota:       cinder.QuotaSet{Volumes: 5, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	c := New("http://cloud.internal")
	c.HTTPClient = httpkit.HandlerClient(cloud)
	return c, res.ProjectID
}

func TestAuthenticateInstallsToken(t *testing.T) {
	c, pid := wiredCloud(t)
	tok, err := c.Authenticate("alice", "pw", pid)
	if err != nil {
		t.Fatal(err)
	}
	if tok == "" || c.Token != tok {
		t.Errorf("token not installed: %q vs %q", tok, c.Token)
	}
}

func TestAuthenticateFailure(t *testing.T) {
	c, pid := wiredCloud(t)
	_, err := c.Authenticate("alice", "wrong", pid)
	if !IsStatus(err, http.StatusUnauthorized) {
		t.Errorf("err = %v, want 401", err)
	}
}

func TestStatusError(t *testing.T) {
	err := &StatusError{Status: 403, Message: "no"}
	if err.Error() != "http 403: no" {
		t.Errorf("Error() = %q", err.Error())
	}
	if !IsStatus(err, 403) || IsStatus(err, 404) || IsStatus(nil, 403) {
		t.Error("IsStatus misbehaves")
	}
}

func TestVolumeCRUDThroughClient(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	v, status, err := c.CreateVolume(pid, "data", 3)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("CreateVolume = %v, %d", err, status)
	}
	got, _, err := c.GetVolume(pid, v.ID)
	if err != nil || got.SizeGB != 3 {
		t.Fatalf("GetVolume = %+v, %v", got, err)
	}
	vols, _, err := c.ListVolumes(pid)
	if err != nil || len(vols) != 1 {
		t.Fatalf("ListVolumes = %v, %v", vols, err)
	}
	upd, _, err := c.UpdateVolume(pid, v.ID, "renamed")
	if err != nil || upd.Name != "renamed" {
		t.Fatalf("UpdateVolume = %+v, %v", upd, err)
	}
	q, _, err := c.GetQuota(pid)
	if err != nil || q.Volumes != 5 {
		t.Fatalf("GetQuota = %+v, %v", q, err)
	}
	if _, err := c.SetQuota(pid, cinder.QuotaSet{Volumes: 7, Gigabytes: 100}); err != nil {
		t.Fatal(err)
	}
	status, err = c.DeleteVolume(pid, v.ID)
	if err != nil || status != http.StatusNoContent {
		t.Fatalf("DeleteVolume = %d, %v", status, err)
	}
}

func TestComputeThroughClient(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.CreateVolume(pid, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, status, err := c.CreateServer(pid, "web")
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("CreateServer = %v, %d", err, status)
	}
	servers, _, err := c.ListServers(pid)
	if err != nil || len(servers) != 1 || servers[0].ID != srv.ID {
		t.Fatalf("ListServers = %v, %v", servers, err)
	}
	gotSrv, _, err := c.GetServer(pid, srv.ID)
	if err != nil || gotSrv.Name != "web" {
		t.Fatalf("GetServer = %+v, %v", gotSrv, err)
	}
	if _, _, err := c.GetServer(pid, "ghost"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("ghost server = %v, want 404", err)
	}
	if _, err := c.AttachVolume(pid, srv.ID, v.ID); err != nil {
		t.Fatal(err)
	}
	got, _, _ := c.GetVolume(pid, v.ID)
	if got.Status != cinder.StatusInUse {
		t.Errorf("status = %q after attach", got.Status)
	}
	if _, err := c.DetachVolume(pid, srv.ID, v.ID); err != nil {
		t.Fatal(err)
	}
	status, err = c.DeleteServer(pid, srv.ID)
	if err != nil || status != http.StatusNoContent {
		t.Fatalf("DeleteServer = %d, %v", status, err)
	}
	if _, err := c.DeleteServer(pid, srv.ID); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("double delete = %v, want 404", err)
	}
}

func TestProjectLookup(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	p, status, err := c.GetProject(pid)
	if err != nil || status != http.StatusOK || p.Name != "p" {
		t.Fatalf("GetProject = %+v, %d, %v", p, status, err)
	}
	if _, _, err := c.GetProject("ghost"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("ghost project = %v, want 404", err)
	}
}

func TestValidateToken(t *testing.T) {
	c, pid := wiredCloud(t)
	tok, err := c.Authenticate("alice", "pw", pid)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := c.ValidateToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved.Roles) != 1 || resolved.Roles[0] != paper.RoleAdmin {
		t.Errorf("roles = %v", resolved.Roles)
	}
	if _, err := c.ValidateToken("bogus"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("bogus subject = %v, want 404", err)
	}
}

func TestWithTokenIsCopy(t *testing.T) {
	c := New("http://x")
	c2 := c.WithToken("tok")
	if c.Token != "" {
		t.Error("WithToken mutated the original")
	}
	if c2.Token != "tok" || c2.BaseURL != c.BaseURL {
		t.Errorf("copy = %+v", c2)
	}
}

func TestDoErrorPaths(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	// 404 surfaces as StatusError with the OpenStack error message.
	_, status, err := c.GetVolume(pid, "ghost")
	if !IsStatus(err, http.StatusNotFound) || status != http.StatusNotFound {
		t.Errorf("GetVolume ghost = %d, %v", status, err)
	}
	se, ok := err.(*StatusError)
	if !ok || se.Message == "" {
		t.Errorf("error message not extracted: %v", err)
	}
	// Unreachable host yields a transport error, not a StatusError.
	lost := New("http://127.0.0.1:1")
	if _, err := lost.Do(http.MethodGet, "/x", nil, nil, nil); err == nil {
		t.Error("unreachable host should error")
	} else if IsStatus(err, 0) {
		t.Error("transport error must not be a StatusError")
	}
}

// listingOfSize is a volume listing padded with whitespace to n bytes.
func listingOfSize(n int) string {
	head, tail := `{"volumes":[{"id":"v1"}]`, `}`
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// TestBodyLimit: a response of exactly httpkit.MaxBodyBytes decodes, and
// one byte more fails as too large rather than being cut and failing to
// decode. The failure is a read failure, not a StatusError, so retry
// loops and breakers treat it as they treat an undecodable body.
func TestBodyLimit(t *testing.T) {
	var body string
	c := New("http://cloud.internal")
	c.HTTPClient = httpkit.HandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, body)
	}))

	body = listingOfSize(httpkit.MaxBodyBytes)
	vols, _, err := c.ListVolumes("p1")
	if err != nil || len(vols) != 1 || vols[0].ID != "v1" {
		t.Fatalf("listing of exactly 1 MiB = %v, %v", vols, err)
	}
	if raw, err := c.GetRaw("/volume/v3/p1/volumes", "", ""); err != nil || len(raw) != httpkit.MaxBodyBytes {
		t.Fatalf("GetRaw of exactly 1 MiB: %d bytes, %v", len(raw), err)
	}

	body = listingOfSize(httpkit.MaxBodyBytes + 1)
	_, _, listErr := c.ListVolumes("p1")
	_, rawErr := c.GetRaw("/volume/v3/p1/volumes", "", "")
	_, tokErr := c.ValidateToken("subject")
	for name, err := range map[string]error{"ListVolumes": listErr, "GetRaw": rawErr, "ValidateToken": tokErr} {
		var tooLarge *httpkit.BodyTooLargeError
		if !errors.As(err, &tooLarge) || !strings.Contains(err.Error(), "body exceeds 1 MiB") {
			t.Errorf("%s of 1 MiB + 1 byte: %v, want a body-exceeds-1-MiB error", name, err)
		}
		if IsStatus(err, http.StatusOK) || !RetryableFor(err, true) || RetryableFor(err, false) || !Infrastructure(err) {
			t.Errorf("%s: %v is not classified as an undecodable read", name, err)
		}
	}
}

// TestAuthenticateReportsOversizedBody: the auth answer is read under the
// same bound, and a read failure is reported rather than dropped.
func TestAuthenticateReportsOversizedBody(t *testing.T) {
	c := New("http://cloud.internal")
	c.HTTPClient = httpkit.HandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Subject-Token", "tok")
		w.WriteHeader(http.StatusCreated)
		_, _ = io.WriteString(w, listingOfSize(httpkit.MaxBodyBytes+1))
	}))
	var tooLarge *httpkit.BodyTooLargeError
	if _, err := c.Authenticate("alice", "pw", "p1"); !errors.As(err, &tooLarge) {
		t.Errorf("Authenticate with an oversized answer: %v, want a body-exceeds error", err)
	}
}
