int:16 jobs;

void Begin() {
  jobs = jobs + 1;
  BUSY = 1;
}

void Finish() {
  SetFalse(BUSY);
}
