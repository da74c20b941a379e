int:16 jobs;

void Begin() {
  @bound(2) while (jobs >= 0) {
    jobs = jobs + 1;
    if (jobs > 30000) {
      jobs = 0;
    }
  }
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}
