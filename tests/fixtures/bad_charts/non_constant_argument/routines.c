int:16 jobs;

void Begin() {
  jobs = jobs + 1;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}

void Add(int:16 n) {
  jobs = jobs + n;
}
